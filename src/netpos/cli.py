"""Command-line surface: partition, similarity, centrality, coevolve,
snapshots, gen, and bench.

Every run emits a JSON manifest (command, resolved options, input hashes,
seeds, version, timings) sufficient to reproduce it bit-for-bit apart from
wall-clock times. Exit codes: 0 success, 2 usage, 3 parse/IO, 4 integrity.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .centrality import CONVENTIONS, compute_measures
from .coevolution import (DEFAULT_BIN_EDGES, DEFAULT_PAIR_CAP, coevolution_report,
                          overlap_matrix, same_position_pairs)
from .engine import EngineConfig, run_refinement
from .graphs import (GeneratorConfig, ParseError, SnapshotSpec,
                     VertexLabelMap, build_snapshots, generate_power_law,
                     load_edge_list, load_temporal_edge_list,
                     reciprocal_projection, save_edge_list)
from .partition import (IterationLimitError, degree_partition, equitable_oracle,
                        fast_eep, read_partition_file, write_partition_file)
from .similarity import UniverseMismatchError, similarity_score

EXIT_PARSE = 3
EXIT_INTEGRITY = 4


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PARSE)
        except (UniverseMismatchError, IterationLimitError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INTEGRITY)
    return wrapper


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


@dataclasses.dataclass
class RunManifest:
    command: str
    options: dict
    input_hashes: dict
    seed: int | None
    version: str = __version__
    started_at: str = ""
    elapsed_s: float = 0.0
    outputs: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(dataclasses.asdict(self), indent=2,
                                         sort_keys=True) + "\n",
                              encoding="utf-8")


def _start_manifest(command: str, options: dict, inputs: dict,
                    seed: int | None = None) -> RunManifest:
    hashes = {name: _sha256_file(p) for name, p in inputs.items()}
    return RunManifest(command=command, options=options, input_hashes=hashes,
                       seed=seed,
                       started_at=datetime.now(timezone.utc).isoformat())


def _finish_manifest(manifest: RunManifest, t0: float, manifest_out,
                     default_path) -> None:
    manifest.elapsed_s = time.perf_counter() - t0
    path = manifest_out or default_path
    if path:
        manifest.write(path)


def _parse_cutoff(token: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token)
    except ValueError:
        raise click.BadParameter(f"cutoff {token!r} is neither a unix "
                                 f"timestamp nor an ISO-8601 date") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _list_option(convert, valid, requirement: str):
    """Click callback parsing a comma-separated option value into a list.

    A token that does not convert, an empty list, or a list failing ``valid``
    is a usage error, raised while the command line is parsed and so before
    any input is read.
    """
    def callback(ctx, param, text):
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = None
        if not values or not valid(values):
            raise click.BadParameter(f"{text!r}: expected {requirement}")
        return values
    return callback


_EPSILONS = _list_option(int, lambda xs: min(xs) >= 0,
                         "comma-separated non-negative integers")
_SIZES = _list_option(int, lambda xs: min(xs) >= 2,
                      "comma-separated integers >= 2")
_GAMMAS = _list_option(float, lambda xs: min(xs) > 1,
                       "comma-separated numbers > 1")
_BIN_EDGES = _list_option(float, lambda xs: all(a < b for a, b in zip(xs, xs[1:])),
                          "strictly ascending comma-separated numbers")
_MEASURE_NAMES = _list_option(str.strip, lambda xs: set(xs) <= CONVENTIONS.keys(),
                              f"comma-separated names from {', '.join(CONVENTIONS)}")


@click.group()
@click.version_option(version=__version__, prog_name="netpos")
def main():
    """Positional analysis of large graphs."""


@main.command()
@click.argument("input_path", metavar="EDGELIST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", "-e", type=click.IntRange(min=0), default=0,
              show_default=True, help="Degree-spread tolerance.")
@click.option("--method", type=click.Choice(["eep", "ep-oracle", "degree"]),
              default="eep", show_default=True)
@click.option("--output", "-o", required=True,
              type=click.Path(dir_okay=False, writable=True))
@click.option("--labels-out", type=click.Path(dir_okay=False),
              help="Label map path [default: OUTPUT.labels].")
@click.option("--manifest-out", type=click.Path(dir_okay=False),
              help="Manifest path [default: OUTPUT.manifest.json].")
@click.option("--progress-interval", type=click.IntRange(min=0), default=0,
              help="Log a key=value progress line every N iterations.")
@_cli_errors
def partition(input_path, epsilon, method, output, labels_out, manifest_out,
              progress_interval):
    """Partition a graph into positions and write a partition file."""
    t0 = time.perf_counter()
    options = dict(input=input_path, epsilon=epsilon, method=method,
                   output=output)
    manifest = _start_manifest("partition", options, {"input": input_path})

    with open(input_path, "r", encoding="utf-8") as fh:
        graph, labels = load_edge_list(fh)
    if method == "eep":
        cfg = EngineConfig(progress_interval=progress_interval, collect_work=True)
        part, stats = run_refinement(graph, epsilon, cfg)
        manifest.extra.update(iterations=stats.iterations, cells=stats.cells,
                              splits=stats.splits, fragments=stats.fragments,
                              map_work=stats.map_work,
                              refine_elapsed_s=stats.elapsed_s)
    elif method == "ep-oracle":
        part = equitable_oracle(graph)
        manifest.extra.update(cells=len(part))
    else:
        part = degree_partition(graph)
        manifest.extra.update(cells=len(part))

    header = {"n": graph.n, "epsilon": epsilon, "algorithm": method,
              "graph_hash": graph.content_hash()}
    with open(output, "w", encoding="utf-8") as fh:
        write_partition_file(fh, part, header=header)
    labels_path = labels_out or output + ".labels"
    labels.save(labels_path)
    manifest.outputs = {"partition": output, "labels": labels_path}
    _finish_manifest(manifest, t0, manifest_out, output + ".manifest.json")
    click.echo(f"cells={len(part)} n={graph.n} m={graph.m} -> {output}")


@main.command()
@click.argument("partition1", type=click.Path(exists=True, dir_okay=False))
@click.argument("partition2", type=click.Path(exists=True, dir_okay=False))
@click.option("--labels", type=click.Path(exists=True, dir_okay=False),
              help="Shared label map, recorded in the report.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def similarity(partition1, partition2, labels, fmt, manifest_out):
    """Score the positional overlap of two partitions of the same vertices."""
    t0 = time.perf_counter()
    inputs = {"partition1": partition1, "partition2": partition2}
    if labels:
        inputs["labels"] = labels
    manifest = _start_manifest(
        "similarity",
        dict(partition1=partition1, partition2=partition2, labels=labels),
        inputs)

    with open(partition1, "r", encoding="utf-8") as fh:
        p1, meta1 = read_partition_file(fh)
    with open(partition2, "r", encoding="utf-8") as fh:
        p2, meta2 = read_partition_file(fh)
    score = similarity_score(p1, p2)

    payload = {
        "value": score.value,
        "cells_1": score.cells_a,
        "cells_2": score.cells_b,
        "cells_intersection": score.cells_intersection,
        "universe_size": score.universe_size,
        "direct_form": score.direct_form,
        "harmonic_form": score.harmonic_form,
        "headers": {"partition1": meta1, "partition2": meta2},
    }
    manifest.extra = {"value": score.value}
    if fmt == "json":
        payload["manifest"] = dataclasses.asdict(manifest)
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in ("value", "cells_1", "cells_2", "cells_intersection",
                    "universe_size", "direct_form", "harmonic_form"):
            click.echo(f"{key}={payload[key]}")
    _finish_manifest(manifest, t0, manifest_out, None)


@main.command()
@click.argument("input_path", metavar="EDGELIST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--measures", "names", default="degree,betweenness,triangles,shapley",
              show_default=True, callback=_MEASURE_NAMES,
              help="Comma-separated measure names.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
              default="csv", show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default="-",
              show_default=True)
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def centrality(input_path, names, fmt, output, manifest_out):
    """Emit per-vertex centrality scores, one record per vertex."""
    t0 = time.perf_counter()
    manifest = _start_manifest(
        "centrality", dict(input=input_path, measures=names, output=output),
        {"input": input_path})
    manifest.extra["conventions"] = {m: CONVENTIONS[m] for m in names}

    with open(input_path, "r", encoding="utf-8") as fh:
        graph, labels = load_edge_list(fh)
    vectors = compute_measures(graph, names)

    sink = sys.stdout if output == "-" else open(output, "w", encoding="utf-8")
    try:
        if fmt == "csv":
            writer = csv.writer(sink)
            writer.writerow(["label"] + names)
            for v in range(graph.n):
                writer.writerow([labels.label_of(v)]
                                + [vectors[m].scores[v].item() for m in names])
        else:
            for v in range(graph.n):
                record = {"label": labels.label_of(v)}
                record.update({m: vectors[m].scores[v].item() for m in names})
                sink.write(json.dumps(record) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    if output != "-":
        manifest.outputs = {"scores": output}
    _finish_manifest(manifest, t0, manifest_out,
                     None if output == "-" else output + ".manifest.json")


@main.command()
@click.argument("log_path", metavar="TEMPORAL_EDGELIST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoffs", required=True,
              help="Comma-separated unix timestamps or ISO-8601 dates.")
@click.option("--directed/--undirected", default=False,
              help="Treat log events as directed links.")
@click.option("--reciprocal", is_flag=True,
              help="Project directed events to reciprocated undirected edges.")
@click.option("--output-base", "-o", required=True,
              help="Snapshots land at BASE.<i>.edges plus BASE.labels.")
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def snapshots(log_path, cutoffs, directed, reciprocal, output_base, manifest_out):
    """Build nested cumulative graph snapshots from a timestamped edge log."""
    t0 = time.perf_counter()
    cuts = [_parse_cutoff(tok) for tok in cutoffs.split(",") if tok.strip()]
    if reciprocal and not directed:
        raise click.UsageError("--reciprocal requires --directed events")
    manifest = _start_manifest(
        "snapshots", dict(log=log_path, cutoffs=cuts, directed=directed,
                          reciprocal=reciprocal, output_base=output_base),
        {"log": log_path})

    with open(log_path, "r", encoding="utf-8") as fh:
        log = load_temporal_edge_list(fh, directed=directed)
    if reciprocal:
        log = reciprocal_projection(log)
    graphs, labels = build_snapshots(log, SnapshotSpec(tuple(cuts)))

    outputs = {}
    for i, graph in enumerate(graphs):
        path = f"{output_base}.{i}.edges"
        with open(path, "w", encoding="utf-8") as fh:
            save_edge_list(graph, labels, fh)
        outputs[f"snapshot_{i}"] = path
        click.echo(f"snapshot {i}: cutoff={cuts[i]} n={graph.n} m={graph.m}")
    labels_path = f"{output_base}.labels"
    labels.save(labels_path)
    outputs["labels"] = labels_path
    manifest.outputs = outputs
    manifest.extra = {"sizes": [[g.n, g.m] for g in graphs]}
    _finish_manifest(manifest, t0, manifest_out,
                     f"{output_base}.manifest.json")


@main.command()
@click.argument("log_path", metavar="TEMPORAL_EDGELIST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoffs", required=True,
              help="Two (histogram mode) or more (--overlap) cutoffs.")
@click.option("--directed/--undirected", default=False)
@click.option("--reciprocal", is_flag=True)
@click.option("--method", type=click.Choice(["eep", "ep-oracle", "degree"]),
              default="eep", show_default=True)
@click.option("--epsilon", "-e", type=click.IntRange(min=0), default=1,
              show_default=True)
@click.option("--measures", "names", default="degree,betweenness,triangles,shapley",
              show_default=True, callback=_MEASURE_NAMES)
@click.option("--bin-edges", default=",".join(str(int(e)) for e in DEFAULT_BIN_EDGES),
              show_default=True, callback=_BIN_EDGES,
              help="Ascending bin edges; last bin overflows.")
@click.option("--cap", type=click.IntRange(min=1), default=DEFAULT_PAIR_CAP,
              show_default=True, help="Same-position pair sample budget.")
@click.option("--full-pairs", is_flag=True, help="Force exact pair enumeration.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--overlap", is_flag=True,
              help="Score every snapshot pair under several methods instead "
                   "of building histograms.")
@click.option("--eps-list", default="0,1,2,3,4,5,6,7,8", show_default=True,
              callback=_EPSILONS, help="Epsilon grid for --overlap.")
@click.option("--output-base", "-o", required=True)
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def coevolve(log_path, cutoffs, directed, reciprocal, method, epsilon, names,
             bin_edges, cap, full_pairs, seed, overlap, eps_list, output_base,
             manifest_out):
    """Analyze how same-position vertex pairs evolve between snapshots."""
    t0 = time.perf_counter()
    cuts = [_parse_cutoff(tok) for tok in cutoffs.split(",") if tok.strip()]
    if reciprocal and not directed:
        raise click.UsageError("--reciprocal requires --directed events")
    options = dict(log=log_path, cutoffs=cuts, directed=directed,
                   reciprocal=reciprocal, method=method, epsilon=epsilon,
                   measures=names, bin_edges=bin_edges, cap=cap,
                   full_pairs=full_pairs, seed=seed, overlap=overlap,
                   eps_list=eps_list)
    manifest = _start_manifest("coevolve", options, {"log": log_path}, seed=seed)

    with open(log_path, "r", encoding="utf-8") as fh:
        log = load_temporal_edge_list(fh, directed=directed)
    if reciprocal:
        log = reciprocal_projection(log)
    graphs, labels = build_snapshots(log, SnapshotSpec(tuple(cuts)))

    if overlap:
        matrix = overlap_matrix(graphs, epsilons=eps_list,
                                include_equitable=True, include_degree=True)
        json_path = f"{output_base}.overlap.json"
        Path(json_path).write_text(
            json.dumps(matrix.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        csv_path = f"{output_base}.overlap.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["earlier", "later"] + list(matrix.methods))
            for (i, j), scores in sorted(matrix.values.items()):
                writer.writerow([i, j] + [f"{scores[m]:.6f}" for m in matrix.methods])
        manifest.outputs = {"overlap_json": json_path, "overlap_csv": csv_path}
        _finish_manifest(manifest, t0, manifest_out,
                         f"{output_base}.manifest.json")
        click.echo(f"overlap matrix over {len(graphs)} snapshots -> {csv_path}")
        return

    if len(cuts) != 2:
        raise click.UsageError("histogram mode takes exactly two cutoffs")
    early, late = graphs
    if method == "eep":
        part = fast_eep(early, epsilon)
    elif method == "ep-oracle":
        part = equitable_oracle(early)
    else:
        part = degree_partition(early)

    common = range(early.n)
    pairs = same_position_pairs(part, common,
                                cap=None if full_pairs else cap, seed=seed)
    scores_early = compute_measures(early, names)
    scores_late = compute_measures(late, names)
    sizes = np.bincount(part.membership)
    population = int((sizes * (sizes - 1) // 2).sum())
    report = coevolution_report(
        pairs,
        {m: (scores_early[m].scores, scores_late[m].scores) for m in names},
        bin_edges=bin_edges,
        sampling={"population_pairs": population, "cap": None if full_pairs else cap,
                  "sampled": len(pairs) < population, "seed": seed},
        metadata={"method": method, "epsilon": epsilon,
                  "cutoffs": cuts, "positions": len(part),
                  "conventions": {m: CONVENTIONS[m] for m in names}})

    json_path = f"{output_base}.report.json"
    Path(json_path).write_text(json.dumps(report.to_json_dict(), indent=2,
                                          sort_keys=True) + "\n",
                               encoding="utf-8")
    csv_path = f"{output_base}.report.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "measure", "count", "pct"])
        for lo, hi, measure, count, pct in report.csv_rows():
            writer.writerow([lo, hi, measure, count, f"{pct:.6f}"])
    manifest.outputs = {"report_json": json_path, "report_csv": csv_path}
    manifest.extra = {"pairs": len(pairs), "positions": len(part)}
    _finish_manifest(manifest, t0, manifest_out, f"{output_base}.manifest.json")
    click.echo(f"pairs={len(pairs)} positions={len(part)} -> {csv_path}")


@main.command()
@click.option("-n", "n", type=click.IntRange(min=2), required=True)
@click.option("--gamma", type=float, required=True,
              help="Power-law exponent, > 1.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", required=True,
              type=click.Path(dir_okay=False, writable=True))
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def gen(n, gamma, seed, output, manifest_out):
    """Generate a random power-law graph (erased configuration model)."""
    t0 = time.perf_counter()
    if gamma <= 1:
        raise click.UsageError("gamma must be > 1")
    manifest = RunManifest(command="gen",
                           options=dict(n=n, gamma=gamma, seed=seed,
                                        output=output),
                           input_hashes={}, seed=seed,
                           started_at=datetime.now(timezone.utc).isoformat())
    graph = generate_power_law(GeneratorConfig(n=n, gamma=gamma, seed=seed))
    labels = VertexLabelMap(str(v) for v in range(graph.n))
    with open(output, "w", encoding="utf-8") as fh:
        save_edge_list(graph, labels, fh)
    manifest.outputs = {"edges": output}
    manifest.extra = {"n": graph.n, "m": graph.m,
                      "self_loops_erased": graph.self_loops_dropped,
                      "multi_edges_erased": graph.duplicates_collapsed,
                      "graph_hash": graph.content_hash()}
    _finish_manifest(manifest, t0, manifest_out, output + ".manifest.json")
    click.echo(f"n={graph.n} m={graph.m} -> {output}")


@main.command()
@click.option("--sizes", required=True, callback=_SIZES,
              help="Comma-separated vertex counts.")
@click.option("--gammas", default="2.9", show_default=True, callback=_GAMMAS)
@click.option("--eps", default="5", show_default=True, callback=_EPSILONS)
@click.option("--repeats", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", required=True,
              type=click.Path(dir_okay=False, writable=True))
@click.option("--manifest-out", type=click.Path(dir_okay=False))
@_cli_errors
def bench(sizes, gammas, eps, repeats, seed, output, manifest_out):
    """Time the refinement over a (size, gamma, epsilon) grid."""
    t0 = time.perf_counter()
    manifest = RunManifest(command="bench",
                           options=dict(sizes=sizes, gammas=gammas, eps=eps,
                                        repeats=repeats, seed=seed,
                                        output=output),
                           input_hashes={}, seed=seed,
                           started_at=datetime.now(timezone.utc).isoformat())
    with open(output, "w", encoding="utf-8", newline="") as fh:
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
                        click.echo(f"n={n} gamma={gamma} eps={epsilon} "
                                   f"rep={rep} t={stats.elapsed_s:.3f}s "
                                   f"iters={stats.iterations} cells={stats.cells}")
    manifest.outputs = {"csv": output}
    _finish_manifest(manifest, t0, manifest_out, output + ".manifest.json")


if __name__ == "__main__":
    main()
