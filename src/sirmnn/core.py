"""Core data types: points, labeled/unlabeled sets, seeding, CSV I/O.

Points are 1-D float64 arrays; datasets store points as an (n, dim) matrix
whose row order is the tie-breaking order used everywhere downstream.
All randomness flows through :class:`SeedSpec`; no global RNG state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SeedSpec",
    "LabeledSet",
    "UnlabeledSet",
    "as_point",
    "euclidean_distance",
    "split_fractions",
    "load_csv",
    "save_csv",
    "load_csv_unlabeled",
    "save_csv_unlabeled",
]

# Shortest repr that round-trips a float64 exactly.
FLOAT_FMT = "%.17g"
SCHEMA_VERSION = 1


def _check_schema(obj: dict) -> None:
    """Reject a JSON object that states a schema version other than ours.

    An object without "schema_version" is read as the current version.
    """
    if "schema_version" in obj and obj["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {obj['schema_version']!r}, expected {SCHEMA_VERSION}")


def as_point(coords) -> np.ndarray:
    """Coerce to a finite 1-D float64 point."""
    p = np.asarray(coords, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("a point must be a non-empty 1-D coordinate sequence")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible random stream handle.

    Identical (master_seed, stream_id) pairs reproduce identical sequences
    regardless of process or thread count. Substreams derived through
    :meth:`rng` with extra key parts are mutually independent.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def rng(self, *key: int) -> np.random.Generator:
        """Generator for this stream, optionally forked by extra key parts."""
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *key))
        return np.random.default_rng(ss)

    def substream(self, *key: int) -> "SeedSpec":
        """Derive a child SeedSpec with a stream id hashed from `key`."""
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id, *key))
        child = int(ss.generate_state(1, dtype=np.uint64)[0]) % (2**31)
        return SeedSpec(self.master_seed, child)


def _check_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(0, 1) if points.size == 0 else points.reshape(1, -1)
    if points.ndim != 2:
        raise ValueError("points must form an (n, dim) array")
    if points.shape[1] < 1:
        raise ValueError("points must have dim >= 1")
    if not np.all(np.isfinite(points)):
        raise ValueError("all coordinates must be finite")
    return points


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Ordered labeled sample. Row order is the tie-breaking order.

    Attributes:
        points: (n, dim) float64, immutable.
        labels: (n,) integer label ids in [0, label_count).
        label_count: number of classes the labels are drawn from.
    """

    points: np.ndarray
    labels: np.ndarray
    label_count: int
    dim: int = field(init=False)

    def __post_init__(self):
        points = _check_points(self.points)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != points.shape[0]:
            raise ValueError("labels must be a 1-D array matching points")
        if self.label_count < 1:
            raise ValueError("label_count must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.label_count):
            raise ValueError("labels must lie in [0, label_count)")
        points.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dim", int(points.shape[1]))

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def slice(self, start: int, stop: int) -> "LabeledSet":
        """Contiguous order-preserving subset [start, stop)."""
        return LabeledSet(self.points[start:stop], self.labels[start:stop], self.label_count)

    def unlabeled(self) -> "UnlabeledSet":
        return UnlabeledSet(self.points)


@dataclass(frozen=True, eq=False)
class UnlabeledSet:
    """Ordered unlabeled sample."""

    points: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        points = _check_points(self.points)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dim", int(points.shape[1]))

    def __len__(self) -> int:
        return int(self.points.shape[0])


def euclidean_distance(a, b) -> float:
    """l2 distance between two points of equal dimension."""
    a = as_point(a)
    b = as_point(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    return float(math.sqrt(float(np.dot(d, d))))


def split_fractions(s: LabeledSet, fractions) -> list[LabeledSet]:
    """Split in insertion order into contiguous parts sized by `fractions`.

    Part sizes are floors of fraction*n; the remainder goes to the final
    part, so the parts are disjoint, order-preserving, and exhaustive.
    """
    fracs = [float(f) for f in fractions]
    if not fracs:
        raise ValueError("fractions must be non-empty")
    if any(f <= 0 for f in fracs):
        raise ValueError("fractions must be positive")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)!r}")
    n = len(s)
    if n == 0:
        raise ValueError("cannot split an empty set")
    sizes = [int(n * f) for f in fracs]
    sizes[-1] = n - sum(sizes[:-1])
    parts = []
    start = 0
    for size in sizes:
        parts.append(s.slice(start, start + size))
        start += size
    return parts


def _header(dim: int) -> list[str]:
    return [f"x_{i}" for i in range(dim)] + ["y"]


def save_csv(s: LabeledSet, path) -> None:
    """Write header x_0..x_{D-1},y and one row per item, in order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(s.dim))
        for row, label in zip(s.points, s.labels):
            w.writerow([FLOAT_FMT % v for v in row] + [int(label)])


def load_csv(path, label_count: int | None = None) -> LabeledSet:
    """Read a dataset written by :func:`save_csv`, preserving row order.

    `label_count` defaults to max(label)+1 (1 for an empty file).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header") from None
        dim = _parse_header(header, path, labeled=True)
        points, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ValueError(f"{path}: line {lineno}: expected {dim + 1} fields, got {len(row)}")
            try:
                points.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value") from None
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), dim)
    lab = np.asarray(labels, dtype=np.int64)
    if label_count is None:
        label_count = int(lab.max()) + 1 if lab.size else 1
    return LabeledSet(pts, lab, label_count)


def save_csv_unlabeled(u: UnlabeledSet, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x_{i}" for i in range(u.dim)])
        for row in u.points:
            w.writerow([FLOAT_FMT % v for v in row])


def load_csv_unlabeled(path) -> UnlabeledSet:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header") from None
        dim = _parse_header(header, path, labeled=False)
        points = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim:
                raise ValueError(f"{path}: line {lineno}: expected {dim} fields, got {len(row)}")
            try:
                points.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value") from None
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), dim)
    return UnlabeledSet(pts)


def _parse_header(header: list[str], path, labeled: bool) -> int:
    cols = [h.strip() for h in header]
    want_label = 1 if labeled else 0
    dim = len(cols) - want_label
    expected = [f"x_{i}" for i in range(dim)] + (["y"] if labeled else [])
    if dim < 1 or cols != expected:
        raise ValueError(f"{path}: line 1: bad header {cols!r}")
    return dim
