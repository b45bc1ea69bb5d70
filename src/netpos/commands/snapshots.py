from . import _CUTOFFS, _arg, _command, _file, _load_snapshots, _manifest, _new_path


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
    from ..textio import save_edge_list
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
