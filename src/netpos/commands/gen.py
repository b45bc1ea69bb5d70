from . import UsageError, _arg, _at_least, _command, _file, _manifest


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
    from ..graphs import GeneratorConfig, generate_power_law
    from ..textio import VertexLabelMap, save_edge_list
    if not gamma > 1:  # rejects nan
        raise UsageError("gamma must be > 1")
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
