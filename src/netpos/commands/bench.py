from . import _EPSILONS, _arg, _at_least, _command, _file, _list_option, _manifest

_SIZES = _list_option(int, lambda xs: min(xs) >= 2,
                      "comma-separated integers >= 2")
_GAMMAS = _list_option(float, lambda xs: all(x > 1 for x in xs),  # rejects nan
                       "comma-separated numbers > 1")


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
    from ..graphs import GeneratorConfig, generate_power_law
    from ..partition import EngineConfig, run_refinement
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
