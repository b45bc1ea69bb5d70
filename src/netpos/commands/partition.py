from . import _METHODS, _arg, _at_least, _command, _file, _manifest, _partition, _read


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
    from ..graphs import load_edge_list
    from ..partition import write_partition_file
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
