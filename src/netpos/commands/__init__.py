"""What the ``netpos`` commands share; each is the function of its name in the
module of this package named after it. Each runs its work in one ``with
_manifest(...)`` block, which owns the clock and, only if the run succeeds,
writes the JSON manifest (command, resolved options, input hashes, seeds,
version, timings); it reproduces the run bit-for-bit apart from wall-clock
times."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .. import __version__

# Each command imports the netpos modules it runs (and numpy and csv) in its
# own body, before its clock starts, so a process loads only what its command
# needs. The option default below therefore restates a library constant
# rather than import it; the CLI tests check that they agree.
_ALL_MEASURES = "degree,betweenness,triangles,shapley"

# Largest k * (k + 2m) over the 2-core (k vertices, m edges) that exact
# betweenness may take on: at the 0.05-0.06 us a unit measured on a 2-vCPU
# host, the limit is about ten minutes there.
MAX_BETWEENNESS_WORK = 10**10
# the most pairs `coevolve --full-pairs` lists: the pair array takes 16 B a
# pair and its score differences are binned chunk by chunk, so the run
# stays near 0.2 GB
MAX_FULL_PAIRS = 10_000_000


class UsageError(Exception):
    """A command line that parsed but cannot run; exits with code 2."""


class Refused(Exception):
    """A run refused before its work starts; exits with code 4."""


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
            from ..textio import ParseError
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
_CUTOFFS = _list_option(_parse_cutoff, _ascending,
                        "strictly ascending comma-separated unix timestamps "
                        "or ISO-8601 dates")
_MEASURE_NAMES = _list_option(str.strip,
                              lambda xs: set(xs) <= set(_ALL_MEASURES.split(",")),
                              "comma-separated names from "
                              + _ALL_MEASURES.replace(",", ", "))
_METHODS = ("eep", "ep-oracle", "degree")


def _arg(*names, **keywords):
    return names, keywords


# every command takes it, after its own arguments
_MANIFEST_OUT = _arg("--manifest-out", type=_file(writable=True), metavar="FILE",
                     help="Manifest path, written only if the run succeeds  "
                          "[default: OUTPUT.manifest.json or BASE.manifest.json; "
                          "none if the output is stdout].")


def _command(*arguments):
    """Declare the decorated function a command taking ``arguments``, each
    the (names, keywords) of one ``add_argument`` call, then ``--manifest-out``."""
    def register(fn):
        fn.arguments = (*arguments, _MANIFEST_OUT)
        return fn
    return register


def _partition(graph, method: str, epsilon: int, progress_interval: int = 0):
    """Partition ``graph`` by ``method``; returns it, its manifest counters and
    the epsilon it was refined at: 0 for ``ep-oracle``, the coarsest equitable
    partition."""
    from ..partition import EngineConfig, degree_partition, run_refinement
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
    from ..centrality import core_size
    k, m = core_size(graph)
    work = k * (k + 2 * m)
    if work > MAX_BETWEENNESS_WORK:
        raise Refused(f"betweenness on n={graph.n} m={graph.m} would search a "
                      f"2-core of k={k} vertices and {m} edges, k*(k+2m) = {work} "
                      f"steps, above the limit of {MAX_BETWEENNESS_WORK}; leave it "
                      f"out of --measures")


def _load_snapshots(log_path, cuts, directed: bool, reciprocal: bool):
    """Read a temporal edge log and cut it into nested snapshots and their labels."""
    if reciprocal and not directed:
        raise UsageError("--reciprocal requires --directed events")
    from ..temporal import (SnapshotSpec, build_snapshots, load_temporal_edge_list,
                           reciprocal_projection)
    log = _read(log_path, load_temporal_edge_list, directed=directed)
    if reciprocal:
        log = reciprocal_projection(log)
    return build_snapshots(log, SnapshotSpec(tuple(cuts)))
