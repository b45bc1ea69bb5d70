"""Command-line surface: partition, similarity, centrality, coevolve,
snapshots, gen, and bench.

Each command runs its work in one ``with _manifest(...)`` block, which owns
the clock and, only if the run succeeds, writes the JSON manifest (command,
resolved options, input hashes, seeds, version, timings) to ``--manifest-out``
or beside the output; it reproduces the run bit-for-bit apart from wall-clock
times. Every option value, paths included, is checked before any input is
read. Exit codes: 0 success, 2 usage, 3 parse/IO, 4 integrity.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import __version__

# Each command imports the netpos modules it runs (and numpy and csv) in its
# own body, before its clock starts, so a process loads only what its command
# needs and `--version` loads no netpos module at all. The option defaults
# below therefore restate three library constants rather than import them;
# the CLI tests check that they agree.
_ALL_MEASURES = "degree,betweenness,triangles,shapley"
_DEFAULT_BIN_EDGES = "0,1,2,3,4,5,6,7,8,9,10"
_DEFAULT_PAIR_CAP = 1_000_000

# Largest k * (k + 2m) over the 2-core (k vertices, m edges) that exact
# betweenness may take on: at the 0.05-0.06 us a unit measured on a 2-vCPU
# host, the limit is about ten minutes there.
MAX_BETWEENNESS_WORK = 10**10
# the most pairs `coevolve --full-pairs` lists: the pair array takes 16 B a
# pair and its score differences are binned chunk by chunk, so the run
# stays near 0.2 GB
MAX_FULL_PAIRS = 10_000_000

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTEGRITY = 4


class _UsageError(Exception):
    """A command line that parsed but cannot run; exits with code 2."""


class _Refused(Exception):
    """A run refused before its work starts; exits with code 4."""


def _parse_errors():
    from .textio import ParseError
    return ParseError, OSError


def _integrity_errors():
    from .partition import IterationLimitError, SignatureCollisionError
    from .similarity import UniverseMismatchError
    return (_Refused, UniverseMismatchError, IterationLimitError,
            SignatureCollisionError)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        # each read allocates a buffer of the size asked for: a 1 MiB one is
        # mmapped, and freeing it raises glibc's mmap threshold to 1 MiB for
        # the rest of the process, so later array temporaries below 1 MiB
        # land on the heap and keep its pages; 64 KiB stays under the threshold
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _read(path, reader, **options):
    """``reader`` applied to the text of the file at ``path``; bytes that are
    not UTF-8 are a ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return reader(fh, **options)
        except UnicodeDecodeError as exc:
            from .textio import ParseError
            raise ParseError(f"{path}: not valid UTF-8 (byte "
                             f"0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


@contextlib.contextmanager
def _manifest(command: str, options: dict, manifest_out, output,
              inputs: dict | None = None, seed: int | None = None):
    """One run: yields its manifest, the dict written as JSON, for the block to
    fill ``outputs`` and ``extra``. Only if the block returns are its time and
    memory recorded and the manifest written, to ``manifest_out`` or else
    beside ``output`` as ``OUTPUT.manifest.json`` (none if both are None)."""
    t0 = time.perf_counter()
    hashes = {name: _sha256_file(p) for name, p in (inputs or {}).items()}
    manifest = dict(command=command, options=options, input_hashes=hashes, seed=seed,
                    version=__version__,
                    started_at=datetime.now(timezone.utc).isoformat(),
                    elapsed_s=0.0, peak_rss_mb=0.0, outputs={}, extra={})
    yield manifest
    manifest["elapsed_s"] = time.perf_counter() - t0
    # this process's own high-water mark; Linux reports ru_maxrss in KiB
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if manifest_out or output:
        _write_json(manifest_out or output + ".manifest.json", manifest)


# --- option values ------------------------------------------------------------
# Each converter runs while the command line is parsed, so a bad value is a
# usage error (exit 2) raised before any input is read.


def _new_path(text: str) -> str:
    """Converter of a path a run will create: its directory must exist and be
    writable."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        state = "is not a directory" if os.path.exists(folder) else "does not exist"
        raise argparse.ArgumentTypeError(f"{folder!r} {state}")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"{folder!r} is not writable")
    return text


def _file(writable: bool = False):
    """Converter of a file path: a directory, or an existing file that cannot
    be read (or written, if ``writable``), is refused; so is a missing path,
    unless ``writable`` and :func:`_new_path` takes it. An output ``-`` is stdout."""
    def convert(text: str) -> str:
        if writable and text == "-":
            return text
        if not os.path.exists(text):
            if not writable:
                raise argparse.ArgumentTypeError(f"{text!r} does not exist")
            return _new_path(text)
        if os.path.isdir(text):
            raise argparse.ArgumentTypeError(f"{text!r} is a directory")
        if not os.access(text, os.R_OK | (os.W_OK if writable else 0)):
            raise argparse.ArgumentTypeError(f"{text!r} is not "
                                             f"{'writable' if writable else 'readable'}")
        return text
    return convert


def _at_least(low: int):
    """Converter of an integer that must be >= ``low``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return convert


def _parse_cutoff(token: str) -> int:
    """A unix timestamp or an ISO-8601 date (UTC unless zoned); else ValueError."""
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    dt = datetime.fromisoformat(token)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # floored, not truncated toward zero, so a fraction before 1970 goes down
    return (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(seconds=1)


def _list_option(convert, valid, requirement: str):
    """Converter of a comma-separated option value into a list.

    A token that does not convert, an empty list, or a list failing ``valid``
    is refused.
    """
    def parse(text: str) -> list:
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = None
        if not values or not valid(values):
            raise argparse.ArgumentTypeError(f"{text!r}: expected {requirement}")
        return values
    return parse


def _ascending(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


_EPSILONS = _list_option(int, lambda xs: min(xs) >= 0,
                         "comma-separated non-negative integers")
_SIZES = _list_option(int, lambda xs: min(xs) >= 2,
                      "comma-separated integers >= 2")
_GAMMAS = _list_option(float, lambda xs: all(x > 1 for x in xs),  # rejects nan
                       "comma-separated numbers > 1")
_BIN_EDGES = _list_option(float, lambda xs: (all(map(math.isfinite, xs))
                                             and _ascending(xs) and xs[0] <= 0),
                          "strictly ascending comma-separated finite numbers, "
                          "the first <= 0")
_CUTOFFS = _list_option(_parse_cutoff, _ascending,
                        "strictly ascending comma-separated unix timestamps "
                        "or ISO-8601 dates")
_MEASURE_NAMES = _list_option(str.strip,
                              lambda xs: set(xs) <= set(_ALL_MEASURES.split(",")),
                              "comma-separated names from "
                              + _ALL_MEASURES.replace(",", ", "))
_METHODS = ("eep", "ep-oracle", "degree")


# --- commands -----------------------------------------------------------------

# name -> (function, arguments): each command function below, registered by
# ``_command`` with the ``add_argument`` calls of its parser
_COMMANDS: dict[str, tuple] = {}


def _arg(*names, **keywords):
    return names, keywords


# every command takes it, after its own arguments
_MANIFEST_OUT = _arg("--manifest-out", type=_file(writable=True), metavar="FILE",
                     help="Manifest path, written only if the run succeeds  "
                          "[default: OUTPUT.manifest.json or BASE.manifest.json; "
                          "none if the output is stdout].")


def _command(*arguments):
    """Register the decorated function as the command of its name, taking
    ``arguments``, each the (names, keywords) of one ``add_argument`` call."""
    def register(fn):
        _COMMANDS[fn.__name__] = (fn, (*arguments, _MANIFEST_OUT))
        return fn
    return register


def _partition(graph, method: str, epsilon: int, progress_interval: int = 0):
    """Partition ``graph`` by ``method``; returns it, its manifest counters and
    the epsilon it was refined at: 0 for ``ep-oracle``, the coarsest equitable
    partition."""
    from .partition import EngineConfig, degree_partition, run_refinement
    if method == "degree":
        part = degree_partition(graph)
        return part, dict(cells=len(part)), epsilon
    if method == "ep-oracle":
        epsilon = 0
    cfg = EngineConfig(progress_interval=progress_interval, collect_work=True)
    part, stats = run_refinement(graph, epsilon, cfg)
    return part, dict(iterations=stats.iterations, cells=stats.cells,
                      splits=stats.splits, fragments=stats.fragments,
                      map_work=stats.map_work, refine_elapsed_s=stats.elapsed_s), epsilon


def _refuse_slow_betweenness(graph, names) -> None:
    """Refuse the run if betweenness is asked for and its 2-core is above the
    work limit."""
    if "betweenness" not in names:
        return
    from .centrality import core_size
    k, m = core_size(graph)
    work = k * (k + 2 * m)
    if work > MAX_BETWEENNESS_WORK:
        raise _Refused(f"betweenness on n={graph.n} m={graph.m} would search a "
                       f"2-core of k={k} vertices and {m} edges, k*(k+2m) = {work} "
                       f"steps, above the limit of {MAX_BETWEENNESS_WORK}; leave it "
                       f"out of --measures")


def _load_snapshots(log_path, cuts, directed: bool, reciprocal: bool):
    """Read a temporal edge log and cut it into nested snapshots and their labels."""
    if reciprocal and not directed:
        raise _UsageError("--reciprocal requires --directed events")
    from .graphs import (SnapshotSpec, build_snapshots, load_temporal_edge_list,
                         reciprocal_projection)
    log = _read(log_path, load_temporal_edge_list, directed=directed)
    if reciprocal:
        log = reciprocal_projection(log)
    return build_snapshots(log, SnapshotSpec(tuple(cuts)))


@_command(
    _arg("input_path", metavar="EDGELIST", type=_file()),
    _arg("-e", "--epsilon", type=_at_least(0), default=0, metavar="INTEGER RANGE",
         help="Degree-spread tolerance.  [default: %(default)s; x>=0]"),
    _arg("--method", choices=_METHODS, default="eep",
         metavar="[eep|ep-oracle|degree]", help="[default: %(default)s]"),
    _arg("-o", "--output", required=True, type=_file(writable=True), metavar="FILE"),
    _arg("--labels-out", type=_file(writable=True), metavar="FILE",
         help="Label map path [default: OUTPUT.labels]."),
    _arg("--progress-interval", type=_at_least(0), default=0, metavar="INTEGER RANGE",
         help="Log a key=value progress line every N iterations.  [x>=0]"),
)
def partition(input_path, epsilon, method, output, labels_out, manifest_out,
              progress_interval):
    """Partition a graph into positions and write a partition file."""
    from .graphs import load_edge_list
    from .partition import write_partition_file
    options = dict(input=input_path, epsilon=epsilon, method=method, output=output)
    with _manifest("partition", options, manifest_out, output,
                   {"input": input_path}) as manifest:
        graph, labels = _read(input_path, load_edge_list)
        part, manifest["extra"], epsilon = _partition(graph, method, epsilon,
                                                      progress_interval)
        header = {"n": graph.n, "epsilon": epsilon, "algorithm": method,
                  "graph_hash": graph.content_hash()}
        with open(output, "w", encoding="utf-8") as fh:
            write_partition_file(fh, part, header=header)
        labels_path = labels_out or output + ".labels"
        labels.save(labels_path)
        manifest["outputs"] = {"partition": output, "labels": labels_path}
    print(f"cells={len(part)} n={graph.n} m={graph.m} -> {output}")


@_command(
    _arg("partition1", metavar="PARTITION1", type=_file()),
    _arg("partition2", metavar="PARTITION2", type=_file()),
    _arg("--labels", type=_file(), metavar="FILE",
         help="Shared label map, recorded in the report."),
    _arg("--format", dest="fmt", choices=("text", "json"), default="text",
         metavar="[text|json]", help="[default: %(default)s]"),
)
def similarity(partition1, partition2, labels, fmt, manifest_out):
    """Score the positional overlap of two partitions of the same vertices."""
    from .partition import read_partition_file
    from .similarity import similarity_score
    options = dict(partition1=partition1, partition2=partition2, labels=labels)
    inputs = {name: path for name, path in options.items() if path}
    with _manifest("similarity", options, manifest_out, None, inputs) as manifest:
        p1, meta1 = _read(partition1, read_partition_file)
        p2, meta2 = _read(partition2, read_partition_file)
        score = similarity_score(p1, p2)
        manifest["extra"] = {"value": score.value}
    payload = dict(value=score.value, cells_1=score.cells_a, cells_2=score.cells_b,
                   cells_intersection=score.cells_intersection,
                   universe_size=score.universe_size, direct_form=score.direct_form,
                   harmonic_form=score.harmonic_form)
    if fmt == "json":
        print(json.dumps(dict(payload, headers={"partition1": meta1, "partition2": meta2},
                              manifest=manifest), indent=2, sort_keys=True))
    else:
        print("\n".join(f"{key}={value}" for key, value in payload.items()))


@_command(
    _arg("input_path", metavar="EDGELIST", type=_file()),
    _arg("--measures", dest="names", type=_MEASURE_NAMES, default=_ALL_MEASURES,
         metavar="TEXT", help="Comma-separated measure names.  [default: %(default)s]"),
    _arg("--format", dest="fmt", choices=("csv", "jsonl"), default="csv",
         metavar="[csv|jsonl]", help="[default: %(default)s]"),
    _arg("-o", "--output", type=_file(writable=True), default="-", metavar="FILE",
         help="[default: %(default)s]"),
)
def centrality(input_path, names, fmt, output, manifest_out):
    """Emit per-vertex centrality scores, one record per vertex."""
    import csv
    from .centrality import CONVENTIONS, compute_measures
    from .graphs import load_edge_list
    to_file = output != "-"
    with _manifest("centrality", dict(input=input_path, measures=names, output=output),
                   manifest_out, output if to_file else None,
                   {"input": input_path}) as manifest:
        manifest["extra"]["conventions"] = {m: CONVENTIONS[m] for m in names}
        graph, labels = _read(input_path, load_edge_list)
        _refuse_slow_betweenness(graph, names)
        vectors = compute_measures(graph, names)

        # one row per vertex, zipped from the label tuple and the score columns
        rows = zip(labels.labels, *(vectors[m].scores.tolist() for m in names))
        with (open(output, "w", encoding="utf-8") if to_file
              else contextlib.nullcontext(sys.stdout)) as sink:
            if fmt == "csv":
                writer = csv.writer(sink)
                writer.writerow(["label"] + names)
                writer.writerows(rows)
            else:
                keys = ["label"] + names
                sink.writelines(json.dumps(dict(zip(keys, row))) + "\n" for row in rows)
        if to_file:
            manifest["outputs"] = {"scores": output}


@_command(
    _arg("log_path", metavar="TEMPORAL_EDGELIST", type=_file()),
    _arg("--cutoffs", required=True, type=_CUTOFFS, metavar="TEXT",
         help="Comma-separated unix timestamps or ISO-8601 dates."),
    _arg("--directed", action="store_true", help="Treat log events as directed links."),
    _arg("--undirected", dest="directed", action="store_false"),
    _arg("--reciprocal", action="store_true",
         help="Project directed events to reciprocated undirected edges."),
    _arg("-o", "--output-base", required=True, type=_new_path, metavar="TEXT",
         help="Snapshots land at BASE.<i>.edges plus BASE.labels."),
)
def snapshots(log_path, cutoffs, directed, reciprocal, output_base, manifest_out):
    """Build nested cumulative graph snapshots from a timestamped edge log."""
    from .textio import save_edge_list
    options = dict(log=log_path, cutoffs=cutoffs, directed=directed,
                   reciprocal=reciprocal, output_base=output_base)
    with _manifest("snapshots", options, manifest_out, output_base,
                   {"log": log_path}) as manifest:
        graphs, labels = _load_snapshots(log_path, cutoffs, directed, reciprocal)
        outputs = manifest["outputs"]
        for i, graph in enumerate(graphs):
            outputs[f"snapshot_{i}"] = path = f"{output_base}.{i}.edges"
            with open(path, "w", encoding="utf-8") as fh:
                save_edge_list(graph, labels, fh)
            print(f"snapshot {i}: cutoff={cutoffs[i]} n={graph.n} m={graph.m}")
        outputs["labels"] = f"{output_base}.labels"
        labels.save(outputs["labels"])
        manifest["extra"] = {"sizes": [[g.n, g.m] for g in graphs]}


@_command(
    _arg("log_path", metavar="TEMPORAL_EDGELIST", type=_file()),
    _arg("--cutoffs", required=True, type=_CUTOFFS, metavar="TEXT",
         help="Two (histogram mode) or more (--overlap) cutoffs."),
    _arg("--directed", action="store_true"),
    _arg("--undirected", dest="directed", action="store_false"),
    _arg("--reciprocal", action="store_true"),
    _arg("--method", choices=_METHODS, default="eep",
         metavar="[eep|ep-oracle|degree]", help="[default: %(default)s]"),
    _arg("-e", "--epsilon", type=_at_least(0), default=1, metavar="INTEGER RANGE",
         help="[default: %(default)s; x>=0]"),
    _arg("--measures", dest="names", type=_MEASURE_NAMES, default=_ALL_MEASURES,
         metavar="TEXT", help="[default: %(default)s]"),
    _arg("--bin-edges", type=_BIN_EDGES, default=_DEFAULT_BIN_EDGES, metavar="TEXT",
         help="Ascending bin edges, the first <= 0 since pair differences are "
              ">= 0; last bin overflows.  [default: %(default)s]"),
    _arg("--cap", type=_at_least(1), default=_DEFAULT_PAIR_CAP, metavar="INTEGER RANGE",
         help="Same-position pair sample budget.  [default: %(default)s; x>=1]"),
    _arg("--full-pairs", action="store_true", help="Force exact pair enumeration."),
    _arg("--seed", type=int, default=0, metavar="INTEGER",
         help="[default: %(default)s]"),
    _arg("--overlap", action="store_true",
         help="Score every snapshot pair under several methods instead of "
              "building histograms."),
    _arg("--eps-list", type=_EPSILONS, default="0,1,2,3,4,5,6,7,8", metavar="TEXT",
         help="Epsilon grid for --overlap.  [default: %(default)s]"),
    _arg("-o", "--output-base", required=True, type=_new_path, metavar="TEXT"),
)
def coevolve(log_path, cutoffs, directed, reciprocal, method, epsilon, names,
             bin_edges, cap, full_pairs, seed, overlap, eps_list, output_base,
             manifest_out):
    """Analyze how same-position vertex pairs evolve between snapshots."""
    import csv
    if overlap:
        from .coevolution import overlap_matrix
    else:
        import numpy as np
        from .centrality import CONVENTIONS, compute_measures
        from .coevolution import coevolution_report, same_position_pairs
    if len(cutoffs) != 2 and not (overlap and len(cutoffs) > 2):
        raise _UsageError("histogram mode takes exactly two cutoffs, "
                         "--overlap two or more")
    # the manifest records only the options that shape this mode's output
    options = dict(log=log_path, cutoffs=cutoffs, directed=directed,
                   reciprocal=reciprocal, overlap=overlap)
    options.update(dict(eps_list=eps_list) if overlap else dict(
        method=method, epsilon=epsilon, measures=names, bin_edges=bin_edges,
        cap=cap, full_pairs=full_pairs, seed=seed))
    kind = "overlap" if overlap else "report"
    json_path, csv_path = f"{output_base}.{kind}.json", f"{output_base}.{kind}.csv"
    with _manifest("coevolve", options, manifest_out, output_base, {"log": log_path},
                   seed=None if overlap else seed) as manifest:
        graphs, _ = _load_snapshots(log_path, cutoffs, directed, reciprocal)
        if overlap:
            result = overlap_matrix(graphs, epsilons=eps_list,
                                    include_equitable=True, include_degree=True)
            header = ["earlier", "later"] + list(result.methods)
            rows = ([i, j] + [f"{scores[m]:.6f}" for m in result.methods]
                    for (i, j), scores in sorted(result.values.items()))
            summary = f"overlap matrix over {len(graphs)} snapshots"
        else:
            early, late = graphs
            _refuse_slow_betweenness(late, names)
            part, _, epsilon = _partition(early, method, epsilon)
            sizes = np.bincount(part.membership)
            population = int((sizes * (sizes - 1) // 2).sum())
            if full_pairs and population > MAX_FULL_PAIRS:
                raise _Refused(f"--full-pairs would list {population} same-position "
                               f"pairs, above the limit of {MAX_FULL_PAIRS}; sample "
                               f"them with --cap")
            pairs = same_position_pairs(part, cap=None if full_pairs else cap, seed=seed)
            scores_early = compute_measures(early, names)
            scores_late = compute_measures(late, names)
            result = coevolution_report(
                pairs,
                {m: (scores_early[m].scores, scores_late[m].scores) for m in names},
                bin_edges=bin_edges,
                sampling={"population_pairs": population,
                          "cap": None if full_pairs else cap,
                          "sampled": len(pairs) < population, "seed": seed},
                metadata={"method": method, "epsilon": epsilon,
                          "cutoffs": cutoffs, "positions": len(part),
                          "conventions": {m: CONVENTIONS[m] for m in names}})
            header = ["bin_lo", "bin_hi", "measure", "count", "pct"]
            rows = ([lo, hi, measure, count, f"{pct:.6f}"]
                    for lo, hi, measure, count, pct in result.csv_rows())
            manifest["extra"] = {"pairs": len(pairs), "positions": len(part)}
            summary = f"pairs={len(pairs)} positions={len(part)}"

        _write_json(json_path, result.to_json_dict())
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        manifest["outputs"] = {f"{kind}_json": json_path, f"{kind}_csv": csv_path}
    print(f"{summary} -> {csv_path}")


@_command(
    _arg("-n", type=_at_least(2), required=True, metavar="INTEGER RANGE",
         help="[x>=2]"),
    _arg("--gamma", type=float, required=True, metavar="FLOAT",
         help="Power-law exponent, > 1."),
    _arg("--seed", type=int, default=0, metavar="INTEGER", help="[default: %(default)s]"),
    _arg("-o", "--output", required=True, type=_file(writable=True), metavar="FILE"),
)
def gen(n, gamma, seed, output, manifest_out):
    """Generate a random power-law graph (erased configuration model)."""
    from .graphs import GeneratorConfig, generate_power_law
    from .textio import VertexLabelMap, save_edge_list
    if not gamma > 1:  # rejects nan
        raise _UsageError("gamma must be > 1")
    with _manifest("gen", dict(n=n, gamma=gamma, seed=seed, output=output),
                   manifest_out, output, seed=seed) as manifest:
        graph = generate_power_law(GeneratorConfig(n=n, gamma=gamma, seed=seed))
        with open(output, "w", encoding="utf-8") as fh:
            save_edge_list(graph, VertexLabelMap.decimal(graph.n), fh)
        manifest["outputs"] = {"edges": output}
        manifest["extra"] = {"n": graph.n, "m": graph.m,
                             "self_loops_erased": graph.self_loops_dropped,
                             "multi_edges_erased": graph.duplicates_collapsed,
                             "graph_hash": graph.content_hash()}
    print(f"n={graph.n} m={graph.m} -> {output}")


@_command(
    _arg("--sizes", required=True, type=_SIZES, metavar="TEXT",
         help="Comma-separated vertex counts."),
    _arg("--gammas", type=_GAMMAS, default="2.9", metavar="TEXT",
         help="[default: %(default)s]"),
    _arg("--eps", type=_EPSILONS, default="0,5", metavar="TEXT",
         help="[default: %(default)s]"),
    _arg("--repeats", type=_at_least(1), default=1, metavar="INTEGER RANGE",
         help="[default: %(default)s; x>=1]"),
    _arg("--seed", type=int, default=0, metavar="INTEGER", help="[default: %(default)s]"),
    _arg("-o", "--output", required=True, type=_file(writable=True), metavar="FILE"),
)
def bench(sizes, gammas, eps, repeats, seed, output, manifest_out):
    """Time the refinement over a (size, gamma, epsilon) grid."""
    import csv
    from .graphs import GeneratorConfig, generate_power_law
    from .partition import EngineConfig, run_refinement
    options = dict(sizes=sizes, gammas=gammas, eps=eps, repeats=repeats, seed=seed,
                   output=output)
    with _manifest("bench", options, manifest_out, output, seed=seed) as manifest, \
            open(output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "gamma", "epsilon", "repeat", "elapsed_s",
                         "iterations", "cells", "splits", "fragments", "map_work"])
        for n in sizes:
            for gamma in gammas:
                graph = generate_power_law(GeneratorConfig(n, gamma, seed=seed))
                for epsilon in eps:
                    for rep in range(repeats):
                        cfg = EngineConfig(collect_work=True)
                        _, stats = run_refinement(graph, epsilon, cfg)
                        writer.writerow([n, gamma, epsilon, rep,
                                         f"{stats.elapsed_s:.6f}",
                                         stats.iterations, stats.cells,
                                         stats.splits, stats.fragments,
                                         stats.map_work])
                        print(f"n={n} gamma={gamma} eps={epsilon} "
                              f"rep={rep} t={stats.elapsed_s:.3f}s "
                              f"iters={stats.iterations} cells={stats.cells}")
        manifest["outputs"] = {"csv": output}


# --- entry points -------------------------------------------------------------

def _parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of command ``name``, or else of ``netpos`` itself, which
    reads the command name and leaves the rest of the line to the command's.

    Each takes exactly the option names it declares (no abbreviations) and
    ``--help``, but no ``-h``. Only the parser of the command that runs is
    built.
    """
    if name is None:
        listing = "".join(f"  {command:<12}{fn.__doc__}\n"
                          for command, (fn, _) in sorted(_COMMANDS.items()))
        parser = argparse.ArgumentParser(
            prog="netpos", description="Positional analysis of large graphs.",
            epilog="commands:\n" + listing, add_help=False, allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        parser.add_argument("--version", action="version",
                            version=f"netpos, version {__version__}",
                            help="Show the version and exit.")
        parser.add_argument("command", metavar="COMMAND", choices=sorted(_COMMANDS))
        parser.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                            help="The command's options and arguments.")
    else:
        fn, arguments = _COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"netpos {name}", description=fn.__doc__,
                                         add_help=False, allow_abbrev=False)
        for names, keywords in arguments:
            parser.add_argument(*names, **keywords)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _bind_values(argv: list[str], arguments) -> list[str]:
    """``argv`` with every option of ``arguments`` that takes a value joined
    to the token after it, as ``--opt=value``, so that a value starting with
    '-' (``--bin-edges -1,0,1``) binds to its option instead of reading as an
    option itself."""
    takes_value = {name for names, keywords in arguments
                   if names[0].startswith("-") and "action" not in keywords
                   for name in names}
    bound, rest = [], iter(argv)
    for token in rest:
        if token == "--":   # every later token is an argument
            bound += [token, *rest]
        elif token in takes_value:
            value = next(rest, None)
            bound.append(token if value is None else f"{token}={value}")
        else:
            bound.append(token)
    return bound


def main(argv: list[str] | None = None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default; returns the exit code.

    Messages go to ``sys.stderr``: ``error: ...`` for a parse, IO or
    integrity error, and the command's usage for a usage error.
    """
    try:
        line = _parser().parse_args(sys.argv[1:] if argv is None else argv)
        command, arguments = _COMMANDS[line.command]
        parser = _parser(line.command)
        args = parser.parse_args(_bind_values(line.args, arguments))
    except SystemExit as exc:   # --help and --version exit 0, a usage error 2
        return exc.code
    try:
        command(**vars(args))
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # an except clause's classes are looked up only once an exception
    # reaches it, so the modules defining them load only on failure
    except _parse_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _integrity_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    return 0


def run():
    """Process entry point: run :func:`main` with the cyclic collector off,
    then the atexit handlers, flush stdout and stderr and end the process with
    ``main``'s code (120 if a flush fails, as in CPython's own shutdown)."""
    # a command's work makes no reference cycles, so the collections that
    # would otherwise run, most of them while numpy loads, would find nothing
    gc.disable()
    code = main()
    # everything still alive dies with the process, so the interpreter is not
    # torn down: that would free numpy's module graph object by object
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:     # the reader is gone
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
