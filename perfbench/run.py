"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and prints one combined
result whose metric names carry the workload's name as a prefix.

Run from the root of a checkout that holds ``src/netpos``. The run pins
itself and its children to one CPU, generates the workload's inputs from the
seed (several times, to time the set-up), runs the workload's ``netpos``
commands once to warm up, then for S seconds runs them again and again, one
fresh child process at a time, timing a fixed calibration loop
(``calibrate.py``) before and after each command sequence. It checks every
output from outside the program. Every child is started from a small
launcher process (``launcher.py``), so its peak memory is its own. With
``--trace 1`` each command sequence is followed by a traced replay of the
same library calls in another child process, and the run reports per-layer
metrics instead of end-to-end ones.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Files
are written under ``.perfbench_work/`` (removed at the end) and
``.perfbench_out/`` (kept: the run's samples and spans) in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import calibrate
import checks
from launcher import Launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0            # the seed whose outputs expected.json records
SETUP_BATCHES = 6           # batches of set-up repeats per measured run, each timed
SETUP_BATCH_S = 0.2         # between two calibration loops; a batch repeats the set-up
# until it has taken this long, so fast set-ups repeat more
COMMAND_TIMEOUT_S = 60

TIMED_LAYERS = (
    "graphs.load", "graphs.load_temporal", "graphs.reciprocal", "graphs.snapshots",
    "graphs.save", "engine.refine", "partition.fast_eep", "partition.oracle",
    "partition.degree", "partition.write", "partition.read", "similarity.score",
    "similarity.restrict", "centrality.degree", "centrality.betweenness",
    "centrality.triangles", "centrality.shapley", "coevolution.pairs",
    "coevolution.report", "coevolution.overlap",
)
COUNTS = ("graphs.events", "graphs.n", "graphs.m", "engine.iterations",
          "engine.cells", "coevolution.pairs", "coevolution.population")


@dataclass
class Child:
    returncode: int
    wall_s: float
    maxrss_mb: float
    cpu_s: float
    timed_out: bool


def run_child(launcher: Launcher, argv: list[str], stdout: Path, env: dict) -> Child:
    """Run one child to completion, through the launcher, and read its usage."""
    return Child(**launcher.run(argv, stdout, stdout.with_suffix(".err"), env, ROOT,
                                COMMAND_TIMEOUT_S))


@dataclass
class Tally:
    """Operations attempted and failed, with the problems behind failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


def failure(child: Child, err: Path) -> str:
    reason = "timed out" if child.timed_out else f"exit code {child.returncode}"
    return f"{reason}: {err.read_text(errors='replace')[-300:].strip()}"


def digest_dir(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def setup(workload, in_dir: Path, seed: int, tally: Tally,
          calib: calibrate.Calibration) -> tuple[dict, list[float], list[float]]:
    """Generate the inputs repeatedly; every repeat must be identical.

    Returns the inputs' descriptors, the time of each repeat, and each
    repeat's time scaled by the calibration loop's times just before and
    just after its batch.
    """
    raw, scaled, digests, desc = [], [], [], {}
    before = calib.time_once()
    for _ in range(SETUP_BATCHES):
        batch = []
        while sum(batch) < SETUP_BATCH_S:
            shutil.rmtree(in_dir, ignore_errors=True)
            in_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            desc = workload.generate(in_dir, workload.n, seed)
            batch.append(time.perf_counter() - t0)
            digests.append(digest_dir(in_dir))
        after = calib.time_once()
        raw += batch
        scaled += [calibrate.scale(t, before, after) for t in batch]
        before = after
    tally.record("setup", [] if all(d == digests[0] for d in digests)
                 else ["generator output differs between runs with one seed"])
    return desc, raw, scaled


def run_sequence(launcher: Launcher, steps, seq: Path, env: dict,
                 expected: dict | None, tally: Tally) -> list[Child] | None:
    """Run the steps in order and check their outputs.

    Returns the children if every command exited 0, else None. A failed
    command ends the sequence, since later commands read its output.
    """
    shutil.rmtree(seq, ignore_errors=True)
    seq.mkdir(parents=True)
    children = []
    for step in steps:
        child = run_child(launcher, [sys.executable, "-m", "netpos.cli", *step.argv],
                          seq / f"{step.name}.out", env)
        if child.returncode != 0 or child.timed_out:
            tally.record(step.name, [failure(child, seq / f"{step.name}.err")])
            return None
        children.append(child)
    for step in steps:
        problems, observed = step.check()
        if expected is not None:
            problems += checks.compare_expected(step.name, observed,
                                                expected.get(step.name))
        tally.record(step.name, problems)
    return children


def layer_metrics(trace: dict, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced replay and the sequence before it."""
    spans = trace["spans"]
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
    replay = next(s["id"] for s in spans if s["name"] == "replay")
    span_total = sum(s["end"] - s["start"] for s in spans if s["parent"] == replay)
    metrics = {f"{name}_s": total[name] for name in TIMED_LAYERS}
    half = total["engine.refine_half"]
    metrics["engine.eps0_doubling"] = total["engine.refine"] / half if half else 0.0
    metrics.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    metrics["cli.residual_s"] = wall_s - span_total
    metrics["cli.cpu_s"] = cpu_s
    return metrics


def traced_replay(launcher: Launcher, workload, desc: dict, in_dir: Path, seq: Path,
                  scratch: Path, env: dict, seed: int, rep: int,
                  tally: Tally) -> dict | None:
    """Replay the sequence just run, traced, in a child; return its trace."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spec = {"workload": workload.name, "cutoffs": desc["cutoffs"],
            "seed": seed, "inputs_dir": str(in_dir), "seq_dir": str(seq),
            "scratch": str(scratch), "out": str(scratch / "trace.json"),
            "run_id": f"{workload.name}-{seed}-{rep}"}
    spec_path = scratch / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = run_child(launcher, [sys.executable, str(HERE / "tracing.py"), str(spec_path)],
                      scratch / "trace.out", env)
    if child.returncode != 0 or child.timed_out:
        tally.record("trace", [failure(child, scratch / "trace.err")])
        return None
    trace = json.loads((scratch / "trace.json").read_text(encoding="utf-8"))
    tally.record("trace", trace["problems"])
    return trace


def machine() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    return {"nproc": os.cpu_count(), "pinned_cpu": min(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            **{dist: version(dist) for dist in ("numpy", "scipy", "click")}}


def describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name} median={statistics.median(values):.4f} {unit} "
            f"(n={len(values)}, min={min(values):.4f}, max={max(values):.4f})")


def span_summary(traces: list) -> list[str]:
    """Module shares of the leaf-layer time and the largest leaf span
    (medians over the replays), and the span where the last replay's peak
    memory rose most.

    Leaf layers are all timed layers but ``coevolution.overlap``, whose work
    the rebuild splits into the public calls it makes.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    for trace, _ in traces:
        totals: dict[str, float] = defaultdict(float)
        for s in trace["spans"]:
            if s["name"] in TIMED_LAYERS and s["name"] != "coevolution.overlap":
                totals[s["name"]] += s["end"] - s["start"]
        for name, value in totals.items():
            samples[name].append(value)
    leaves = {name: statistics.median(v) for name, v in samples.items()}
    total = sum(leaves.values()) or 1.0
    shares: dict[str, float] = defaultdict(float)
    for name, value in leaves.items():
        shares[name.split(".")[0]] += value / total
    top = max(leaves, key=leaves.get)
    spans = [s for s in traces[-1][0]["spans"] if s["name"] not in ("replay", "extra")]
    rss = max(spans, key=lambda s: s["rss_rise_mb"])
    return ["module shares of leaf-layer time: " + " ".join(
                f"{m}={v:.3f}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])),
            f"largest leaf span: {top} ({leaves[top]:.4f} s)",
            f"largest ru_maxrss rise: {rss['name']} (+{rss['rss_rise_mb']:.1f} MB)"
            if rss["rss_rise_mb"] else
            "largest ru_maxrss rise: none; the replay's peak came before its first span"]


def measure(launcher: Launcher, workload, seed: int, seconds: float,
            trace: bool) -> dict | None:
    """One measured run of a workload.

    Prints the run's human-readable lines and returns its result object, or
    None when no command sequence (or, when tracing, no replay) completed.
    """
    import workloads

    expected = None
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        expected = recorded[workload.name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        calib = calibrate.Calibration()
        calib.time_once()
        desc, setup_times, setup_scaled = setup(workload, work / "in", seed, tally,
                                                calib)
        seq = work / "seq"
        steps = workload.steps(workloads.Inputs(work / "in", desc), seq)
        # warm-up, checked and untimed
        run_sequence(launcher, steps, seq, env, expected, tally)
        sequences, traces, calibrations = [], [], []
        deadline = time.perf_counter() + seconds
        last = 0.0      # length of the previous round; a round that would end
        # more than half past the deadline is not started
        before = calib.time_once()
        while (time.perf_counter() + last / 2 < deadline
               or not (sequences or tally.failed)):
            started = time.perf_counter()
            children = run_sequence(launcher, steps, seq, env, expected, tally)
            after = calib.time_once()
            last = time.perf_counter() - started
            if children is not None:
                sequences.append(children)
                calibrations.append((before, after))
                if trace:
                    replay = traced_replay(launcher, workload, desc, work / "in", seq,
                                           work / "trace", env, seed, len(traces), tally)
                    if replay is not None:
                        traces.append((replay, children))
                    after = calib.time_once()
                    last = time.perf_counter() - started
            before = after
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if not sequences or (trace and not traces):
        print(f"error: {workload.name}: no command sequence"
              + (" and replay" if trace else "") + " completed", file=sys.stderr)
        for problem in tally.problems[:20]:
            print(f"problem {problem}", file=sys.stderr)
        return None
    walls = [sum(c.wall_s for c in s) for s in sequences]
    norms = [calibrate.scale(w, *pair) for w, pair in zip(walls, calibrations)]
    peaks = [max(c.maxrss_mb for c in s) for s in sequences]
    cpus = [sum(c.cpu_s for c in s) for s in sequences]
    print(f"workload {workload.name} seed={seed}: {workload.why}")
    print("inputs " + " ".join(f"{k}={v}" for k, v in desc.items()))
    print(describe("wall_s", walls, "s"))
    print(describe("calibration_s", [t for pair in calibrations for t in pair], "s"))
    print(describe("wall_norm_s", norms, "s"))
    print(describe("peak_rss_mb", peaks, "MB"))
    print(describe("setup_raw_s", setup_times, "s"))
    print(describe("setup_s", setup_scaled, "s"))
    print(f"fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")
    for problem in tally.problems[:20]:
        print(f"problem {problem}")

    record = {"workload": workload.name, "seed": seed, "inputs": desc,
              "machine": machine(), "walls_s": walls, "calibrations_s": calibrations,
              "walls_norm_s": norms, "peaks_mb": peaks,
              "cpus_s": cpus, "setup_raw_s": setup_times,
              "setup_s": setup_scaled,
              "problems": tally.problems}
    if trace:
        per_rep = [layer_metrics(t, sum(c.wall_s for c in ch), sum(c.cpu_s for c in ch))
                   for t, ch in traces]
        units = {name: ("s" if name.endswith("_s") else
                        "ratio" if name == "engine.eps0_doubling" else "count")
                 for name in per_rep[0]}
        metrics = {name: {"value": statistics.median(r[name] for r in per_rep),
                          "unit": unit} for name, unit in units.items()}
        print(f"per-layer medians over {len(per_rep)} traced replays:")
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for line in span_summary(traces):
            print(line)
        record["spans"] = [t["spans"] for t, _ in traces]
    else:
        metrics = {"wall_norm_s": {"value": statistics.median(norms), "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
                   "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record), encoding="utf-8")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "netpos" / "__init__.py").is_file():
        print(f"error: no netpos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    calibrate.pin_to_one_cpu()

    import netpos
    if not Path(netpos.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: netpos imported from {netpos.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine " + " ".join(f"{k}={v}" for k, v in machine().items()))
    results = {}
    with Launcher() as launcher:
        for name in names:
            result = measure(launcher, workloads.WORKLOADS[name], args.seed,
                             args.seconds, bool(args.trace))
            if result is None:
                return 1
            results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
