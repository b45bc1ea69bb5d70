import math

from . import (MAX_FULL_PAIRS, Refused, UsageError, _ALL_MEASURES, _CUTOFFS, _EPSILONS,
               _MEASURE_NAMES, _METHODS, _arg, _ascending, _at_least, _command, _file,
               _list_option, _load_snapshots, _manifest, _new_path, _partition,
               _refuse_slow_betweenness, _write_json)

# two library constants, restated as ``_ALL_MEASURES`` is
_DEFAULT_BIN_EDGES = "0,1,2,3,4,5,6,7,8,9,10"
_DEFAULT_PAIR_CAP = 1_000_000

_BIN_EDGES = _list_option(float, lambda xs: (all(map(math.isfinite, xs))
                                             and _ascending(xs) and xs[0] <= 0),
                          "strictly ascending comma-separated finite numbers, "
                          "the first <= 0")


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
        from ..coevolution import overlap_matrix
    else:
        import numpy as np
        from ..centrality import CONVENTIONS, compute_measures
        from ..coevolution import coevolution_report, same_position_pairs
    if len(cutoffs) != 2 and not (overlap and len(cutoffs) > 2):
        raise UsageError("histogram mode takes exactly two cutoffs, "
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
                raise Refused(f"--full-pairs would list {population} same-position "
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
