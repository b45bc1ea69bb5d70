"""The package surface, the modules each CLI command loads, and the imports
between the package's modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netpos
from netpos.cli import main

from helpers import CliRunner

EXPORTS = {
    "textio": {"ParseError", "VertexLabelMap", "save_edge_list"},
    "graphs": {"GeneratorConfig", "Graph", "generate_power_law", "load_edge_list"},
    "temporal": {"SnapshotSpec", "TemporalEdgeLog", "build_snapshots",
                 "load_temporal_edge_list", "reciprocal_projection"},
    "partition": {"EngineConfig", "IterationLimitError", "Partition",
                  "RefinementStats", "SignatureCollisionError", "degree_partition",
                  "epsilon_spread", "equitable_oracle", "fast_eep",
                  "read_partition_file", "run_refinement", "write_partition_file"},
    "similarity": {"SimilarityScore", "UniverseMismatchError",
                   "restrict_partition", "similarity_score"},
    "centrality": {"CONVENTIONS", "CentralityVector", "betweenness_centrality",
                   "compute_measures", "degree_centrality", "shapley_centrality",
                   "triangle_counts"},
    "coevolution": {"DEFAULT_BIN_EDGES", "DEFAULT_PAIR_CAP", "CoevolutionReport",
                    "OverlapMatrix", "coevolution_report", "overlap_matrix",
                    "pair_difference_histogram", "same_position_pairs"},
}
NAMES = set().union(*EXPORTS.values())


def test_all_lists_the_exports():
    assert len(NAMES) == 43
    assert len(netpos.__all__) == 43 and set(netpos.__all__) == NAMES
    assert NAMES <= set(dir(netpos))


def test_each_export_is_its_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"netpos.{module_name}")
        for name in names:
            assert getattr(netpos, name) is getattr(module, name), name


def test_star_import():
    namespace = {}
    exec("from netpos import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        netpos.no_such_name
    assert not hasattr(netpos, "MAX_FULL_PAIRS")


# --- modules each command loads ---------------------------------------------

_LOADED = """\
import sys
from netpos.cli import main
main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
"""


def _modules_after(tmp_path, script, *args):
    src = Path(netpos.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    runner = CliRunner()
    edges = str(tmp / "g.edges")
    assert runner.invoke(main, ["gen", "-n", "60", "--gamma", "2.5", "-o", edges]).exit_code == 0
    for eps in ("0", "2"):
        result = runner.invoke(main, ["partition", edges, "-e", eps,
                                      "-o", str(tmp / f"g{eps}.part")])
        assert result.exit_code == 0
    (tmp / "log").write_text("a b 10\nb a 20\nb c 30\nc b 40\na c 50\n",
                             encoding="utf-8")
    return tmp


# each command loads ``commands``, the run lifecycle, and ``commands.<name>``
@pytest.mark.parametrize("args, netpos_modules, absent", [
    (["partition", "g.edges", "-e", "0", "-o", "out.part"],
     {"commands.partition", "graphs", "textio", "partition"}, {"logging", "csv"}),
    (["partition", "g.edges", "-e", "0", "-o", "loud.part", "--progress-interval", "1"],
     {"commands.partition", "graphs", "textio", "partition"}, {"logging", "csv"}),
    (["snapshots", "log", "--cutoffs", "20,50", "-o", "snap"],
     {"commands.snapshots", "graphs", "textio", "temporal"}, set()),
    # reads its partition files on the text I/O's block tokenizer
    (["similarity", "g0.part", "g2.part"],
     {"commands.similarity", "graphs", "textio", "partition", "similarity"}, {"csv"}),
    (["gen", "-n", "20", "--gamma", "2.5", "-o", "h.edges"],
     {"commands.gen", "graphs", "textio"}, {"csv"}),
    (["centrality", "g.edges", "-o", "c.csv"],
     {"commands.centrality", "graphs", "textio", "centrality"}, {"logging"}),
    (["coevolve", "log", "--cutoffs", "20,40,50", "--overlap", "-o", "ov"],
     {"commands.coevolve", "graphs", "textio", "temporal", "partition", "similarity",
      "coevolution"}, {"logging"}),
    # generates its graphs, but ``graphs`` imports ``textio`` at module level
    (["bench", "--sizes", "20", "-o", "b.csv"],
     {"commands.bench", "graphs", "textio", "partition"}, {"logging"}),
    (["--version"], set(), {"numpy", "logging", "csv"}),
], ids=["partition", "partition-progress", "snapshots", "similarity", "gen",
        "centrality", "coevolve-overlap", "bench", "version"])
def test_command_loads_only_its_modules(inputs, args, netpos_modules, absent):
    loaded = _modules_after(inputs, _LOADED, *args)
    want = {"netpos", "netpos.cli"} | {f"netpos.{m}" for m in netpos_modules}
    if netpos_modules:
        want.add("netpos.commands")
    assert {m for m in loaded if m.split(".")[0] == "netpos"} == want
    # the records are plain classes: no command generates dataclass code
    assert not (absent | {"dataclasses", "click"}) & loaded


_RUN_AS_MAIN = """\
import atexit, runpy, sys
atexit.register(lambda: print(" ".join(sorted(sys.modules))))
sys.argv[0] = "netpos"
runpy.run_module("netpos.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args, netpos_modules", [
    (["partition", "g.edges", "-e", "0", "-o", "main.part"],
     {"commands.partition", "graphs", "textio", "partition"}),
    (["similarity", "g0.part", "g2.part"],
     {"commands.similarity", "graphs", "textio", "partition", "similarity"}),
    (["snapshots", "log", "--cutoffs", "20,50", "-o", "main-snap"],
     {"commands.snapshots", "graphs", "textio", "temporal"}),
    (["coevolve", "log", "--cutoffs", "20,40,50", "--overlap", "-o", "main-ov"],
     {"commands.coevolve", "graphs", "textio", "temporal", "partition", "similarity",
      "coevolution"}),
], ids=["partition", "similarity", "snapshots", "coevolve-overlap"])
def test_module_run_compiles_the_entry_module_once(inputs, args, netpos_modules):
    # under ``python -m netpos.cli`` the entry module runs as ``__main__``: a
    # module that imported ``netpos.cli`` would compile it a second time
    loaded = _modules_after(inputs, _RUN_AS_MAIN, *args)
    assert {m for m in loaded if m.split(".")[0] == "netpos"} == \
        {"netpos", "netpos.commands"} | {f"netpos.{m}" for m in netpos_modules}


_BARE_IMPORT = """\
import sys, netpos
loaded = " ".join(sys.modules)
assert netpos.coevolution.DEFAULT_PAIR_CAP == 1_000_000   # submodules load on use
print(loaded)
"""


def test_import_netpos_loads_no_submodule(tmp_path):
    loaded = _modules_after(tmp_path, _BARE_IMPORT)
    assert {m for m in loaded if m.split(".")[0] == "netpos"} == {"netpos"}


PACKAGE = Path(netpos.__file__).parent
# the CLI: its entry point and ``netpos.commands``, the run lifecycle every
# command shares and one module per command
CLI_MODULES = [PACKAGE / "cli.py", *sorted((PACKAGE / "commands").glob("*.py"))]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper two modules need belongs, public, to the module that owns it;
    # the modules of a subpackage share its ``__init__``'s private helpers
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or (
                    path.parent != PACKAGE and node.level == 1 and not node.module):
                continue
            if node.level or (node.module or "").split(".")[0] == "netpos":
                found += [f"{path.relative_to(PACKAGE)}: {alias.name}"
                          for alias in node.names if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    assert found == []


def test_imports_run_one_way_down_to_textio():
    # textio is the bottom of the package: it imports no netpos module, and
    # only the CLI, which loads each command's modules on use, imports a
    # sibling inside a function
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = {id(node) for scope in ast.walk(tree)
                  if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if not node.level else ["netpos"]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            inside = id(node) in nested and path not in CLI_MODULES
            if any(m.split(".")[0] == "netpos" for m in modules) and (
                    path.name == "textio.py" or inside):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_cli_run_lifecycle_has_one_owner():
    # the clock, the memory reading and the manifest write live in the one
    # ``_manifest`` block every command runs in, and ``--manifest-out`` is
    # declared once for all of them, across every module of the CLI
    readers, declared = set(), []
    for path in CLI_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef):
                readers |= {(path.name, scope.name) for node in ast.walk(scope)
                            if isinstance(node, ast.Attribute)
                            and (node.attr, getattr(node.value, "id", None))
                            in {("perf_counter", "time"), ("getrusage", "resource")}}
        declared += [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and node.value == "--manifest-out"]
    assert readers == {("__init__.py", "_manifest")} and len(declared) == 1


# the refinement loop's helpers, by module; each runs once or more per iteration
LOOP_HELPERS = {
    "partition.py": {"run_refinement", "_splitter_classes", "_degree_classes",
                     "_epsilon_classes", "_split_cells", "_all_but_largest",
                     "_mix64", "_signature_classes"},
    "graphs.py": {"ranges", "run_offsets", "adjacent", "tally", "degrees"},
}
# numpy functions written in Python around one array method or ufunc call;
# at a few hundred vertices their own overhead outweighs the work they do
WRAPPERS = {"diff", "delete", "append", "insert", "repeat", "searchsorted",
            "flatnonzero", "array_equal", "cumsum", "sort"}


def test_refinement_loop_calls_no_python_level_numpy_wrapper():
    found, seen = [], set()
    for module, helpers in LOOP_HELPERS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef) and scope.name in helpers:
                seen.add((module, scope.name))
                found += [f"{module}:{node.lineno} np.{node.func.attr}"
                          for node in ast.walk(scope) if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and getattr(node.func.value, "id", None) == "np"
                          and node.func.attr in WRAPPERS]
    assert seen == {(m, h) for m, helpers in LOOP_HELPERS.items() for h in helpers}
    assert found == []
