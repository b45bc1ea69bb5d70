import json

from . import _arg, _command, _file, _manifest, _read


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
    from ..partition import read_partition_file
    from ..similarity import similarity_score
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
