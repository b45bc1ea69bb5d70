"""Output checks, run from outside the program on the files it wrote.

Each check returns a list of problems; an empty list means the output passed.
The checks use numpy only and never build a dense n x K matrix, so they stay
cheap at sizes where ``netpos.epsilon_spread`` would not fit in memory.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

FORM_AGREEMENT = 1e-12      # the tolerance similarity_score documents
SCORE_TOLERANCE = 1e-12     # for scores compared with recorded values


def read_edges(path) -> tuple[list[str], list[str]]:
    """Source and target labels of every edge line, comments skipped."""
    src, dst = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            a, b = line.split()[:2]
            src.append(a)
            dst.append(b)
    return src, dst


def read_labels(path) -> list[str]:
    """Labels of a label-map file, indexed by internal id."""
    labels = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            vid, label = line.rstrip("\n").split("\t", 1)
            if int(vid) != i:
                raise ValueError(f"label map id {vid} out of sequence")
            labels.append(label)
    return labels


def read_partition(path) -> tuple[dict, list[np.ndarray]]:
    """Header and cells of a partition file."""
    header: dict[str, str] = {}
    cells = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                header.update(tok.split("=", 1) for tok in line[1:].split()
                              if "=" in tok)
                continue
            idx, members = line.rstrip("\n").split("\t", 1)
            if int(idx) != len(cells):
                raise ValueError(f"cell index {idx} out of sequence")
            cells.append(np.array(members.split(), dtype=np.int64))
    return header, cells


def membership(cells: list[np.ndarray], n: int) -> tuple[np.ndarray | None, list[str]]:
    """Cell of each vertex in [0, n), or None and the problems found."""
    memb = np.full(n, -1, dtype=np.int64)
    problems = []
    for i, cell in enumerate(cells):
        if cell.size == 0:
            problems.append(f"cell {i} is empty")
            continue
        if cell.min() < 0 or cell.max() >= n:
            problems.append(f"cell {i} holds a vertex outside [0, {n})")
            continue
        if np.any(memb[cell] >= 0) or np.unique(cell).size != cell.size:
            problems.append(f"cell {i} repeats a vertex")
            continue
        memb[cell] = i
    if not problems and np.any(memb < 0):
        problems.append(f"vertex {int(np.flatnonzero(memb < 0)[0])} is in no cell")
    return (None if problems else memb), problems


def epsilon_spread(u: np.ndarray, v: np.ndarray, memb: np.ndarray, k: int) -> int:
    """Largest spread of member degrees toward any cell, from sparse counts.

    Counts each (vertex, neighbour cell) pair once from the sorted adjacency
    entries, then takes max - min per (own cell, neighbour cell) group. A
    member with no entry for a neighbour cell has degree 0 toward it.
    """
    if u.size == 0:
        return 0
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    keys, counts = np.unique(src * k + memb[dst], return_counts=True)
    vert, target = np.divmod(keys, k)
    group = memb[vert] * k + target
    order = np.argsort(group, kind="stable")
    group, counts = group[order], counts[order]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    high = np.maximum.reduceat(counts, starts)
    low = np.minimum.reduceat(counts, starts)
    present = np.diff(np.r_[starts, group.size])
    cell_size = np.bincount(memb, minlength=k)
    low = np.where(present < cell_size[group[starts] // k], 0, low)
    return int((high - low).max())


class GraphFile:
    """An edge list read once, as label pairs."""

    def __init__(self, path):
        self.src, self.dst = read_edges(path)
        self.label_set = set(self.src) | set(self.dst)

    def ids(self, labels: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
        """Edge endpoints as ids under ``labels``; None if they disagree."""
        if len(labels) != len(self.label_set) or set(labels) != self.label_set:
            return None
        index = {label: i for i, label in enumerate(labels)}
        u = np.fromiter((index[a] for a in self.src), np.int64, len(self.src))
        v = np.fromiter((index[b] for b in self.dst), np.int64, len(self.dst))
        return u, v


def check_partition(graph: GraphFile, part_path, labels_path,
                    epsilon: int) -> tuple[list[str], list[np.ndarray]]:
    """Problems with a partition file, and its cells."""
    try:
        header, cells = read_partition(part_path)
        labels = read_labels(labels_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable partition output: {exc}"], []
    ends = graph.ids(labels)
    if ends is None:
        return ["label map does not match the input's vertices"], cells
    memb, problems = membership(cells, len(labels))
    if problems:
        return problems, cells
    if header.get("cells") != str(len(cells)):
        problems.append(f"header cells={header.get('cells')} but file has {len(cells)}")
    spread = epsilon_spread(*ends, memb, len(cells))
    if spread > epsilon:
        problems.append(f"epsilon spread {spread} exceeds {epsilon}")
    return problems, cells


def partition_digest(cells: list[np.ndarray]) -> str:
    """Digest of the cells in canonical order (by least member)."""
    canon = sorted((np.sort(c).tolist() for c in cells), key=lambda c: c[0])
    text = "\n".join(" ".join(map(str, c)) for c in canon)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def check_snapshots(paths) -> tuple[list[str], list[str]]:
    """Problems with nested snapshot edge lists, and their digests.

    A snapshot's digest covers its sorted set of unordered label pairs.
    """
    problems, digests, previous = [], [], set()
    for i, path in enumerate(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                head = fh.readline()
            src, dst = read_edges(path)
        except (OSError, ValueError) as exc:
            return [f"unreadable snapshot {i}: {exc}"], []
        pairs = {(min(a, b), max(a, b)) for a, b in zip(src, dst)}
        declared = dict(tok.split("=", 1) for tok in head[1:].split() if "=" in tok)
        if declared.get("edges") != str(len(src)) or len(pairs) != len(src):
            problems.append(f"snapshot {i} declares {declared.get('edges')} "
                            f"edges but lists {len(src)} ({len(pairs)} distinct)")
        if not previous <= pairs:
            problems.append(f"snapshot {i} drops edges of snapshot {i - 1}")
        previous = pairs
        text = "\n".join(sorted(f"{a} {b}" for a, b in pairs))
        digests.append("sha256:" + hashlib.sha256(text.encode()).hexdigest())
    return problems, digests


def check_similarity(stdout_path, cells_1, cells_2,
                     n: int) -> tuple[list[str], float | None]:
    """Problems with ``netpos similarity --format json`` output, and its value.

    The value is recomputed from the two partitions' membership pairs.
    """
    try:
        with open(stdout_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        value = float(payload["value"])
        direct = float(payload["direct_form"])
        harmonic = float(payload["harmonic_form"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable similarity output: {exc}"], None
    problems = []
    if abs(direct - harmonic) > FORM_AGREEMENT or value != direct:
        problems.append(f"forms disagree: value={value} direct={direct} "
                        f"harmonic={harmonic}")
    m1, p1 = membership(cells_1, n)
    m2, p2 = membership(cells_2, n)
    if p1 or p2:
        return problems + ["similarity inputs are not partitions"], value
    k1, k2 = len(cells_1), len(cells_2)
    inter = np.unique(m1 * k2 + m2).size
    if k1 == k2 == inter:
        expect = 1.0
    elif n in (k1, k2):
        expect = 0.0
    else:
        expect = 0.5 * ((n - inter) / (n - k1) + (n - inter) / (n - k2))
    if abs(expect - value) > FORM_AGREEMENT:
        problems.append(f"similarity {value} but the partitions give {expect}")
    if (payload.get("cells_1"), payload.get("cells_2"),
            payload.get("cells_intersection")) != (k1, k2, inter):
        problems.append("cell counts in the similarity output are wrong")
    return problems, value


def check_report(path, measures, cap: int) -> tuple[list[str], str | None]:
    """Problems with a coevolve histogram report, and its digest."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        counts = report["counts"]
        total = int(report["total_pairs"])
        edges = report["bin_edges"]
        population = int(report["sampling"]["population_pairs"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable coevolve report: {exc}"], None
    problems = []
    if sorted(counts) != sorted(measures):
        problems.append(f"report measures {sorted(counts)}, expected {sorted(measures)}")
    for measure, row in counts.items():
        if len(row) != len(edges):
            problems.append(f"{measure}: {len(row)} bins for {len(edges)} edges")
        if sum(row) != total:
            problems.append(f"{measure}: counts sum to {sum(row)}, not {total}")
    if total != min(cap, population):
        problems.append(f"total_pairs {total} != min(cap {cap}, population {population})")
    canon = json.dumps({"counts": counts, "total_pairs": total,
                        "population": population}, sort_keys=True)
    return problems, "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def check_overlap(path, methods, n_snapshots: int) -> tuple[list[str], dict | None]:
    """Problems with a coevolve overlap matrix, and its values."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)["values"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable overlap output: {exc}"], None
    problems = []
    pairs = {f"{i}-{j}" for i in range(n_snapshots) for j in range(i + 1, n_snapshots)}
    if set(values) != pairs:
        return [f"overlap pairs {sorted(values)}, expected {sorted(pairs)}"], None
    for key, row in values.items():
        if sorted(row) != sorted(methods):
            problems.append(f"{key}: methods {sorted(row)}")
            continue
        if row["eep:0"] != row["ep"]:
            problems.append(f"{key}: eep:0 {row['eep:0']} != ep {row['ep']}")
        if any(not 0.0 <= x <= 100.0 for x in row.values()):
            problems.append(f"{key}: a score lies outside [0, 100]")
    return problems, values


def compare_expected(name: str, got, want) -> list[str]:
    """Compare a digest or a (nested) score with its recorded value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{name}: keys differ from the recorded output"]
        return [p for key in want
                for p in compare_expected(f"{name}.{key}", got[key], want[key])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{name}: length differs from the recorded output"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_expected(f"{name}[{i}]", g, w)]
    if isinstance(want, float):
        if got is None or not math.isclose(got, want, rel_tol=SCORE_TOLERANCE,
                                           abs_tol=SCORE_TOLERANCE):
            return [f"{name}: {got} differs from the recorded {want}"]
        return []
    return [] if got == want else [f"{name}: {got} differs from the recorded {want}"]
