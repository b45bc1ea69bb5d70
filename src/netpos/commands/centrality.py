import contextlib
import json
import sys

from . import (_ALL_MEASURES, _MEASURE_NAMES, _arg, _command, _file, _manifest, _read,
               _refuse_slow_betweenness)


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
    from ..centrality import CONVENTIONS, compute_measures
    from ..graphs import load_edge_list
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
