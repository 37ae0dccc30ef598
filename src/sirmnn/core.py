"""Core data types: points, labeled/unlabeled sets, seeding, CSV I/O.

Points are 1-D float64 arrays; datasets store points as an (n, dim) matrix
whose row order is the tie-breaking order used everywhere downstream.
All randomness flows through :class:`SeedSpec`; no global RNG state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SeedSpec",
    "LabeledSet",
    "UnlabeledSet",
    "as_point",
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


def write_json(obj, path) -> None:
    """Write `obj` as indented, key-sorted JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _read_only(arr: np.ndarray, given) -> np.ndarray:
    """arr with writing turned off. A writeable arr that is the caller's own
    array `given`, or a view into other memory, is copied first, so the
    caller's array stays writeable and cannot change the set. Read-only
    inputs, such as slices of another set, stay views."""
    if arr.flags.writeable and (arr is given or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "points", _read_only(points, self.points))
        object.__setattr__(self, "labels", _read_only(labels, self.labels))
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
        object.__setattr__(self, "points", _read_only(points, self.points))
        object.__setattr__(self, "dim", int(points.shape[1]))

    def __len__(self) -> int:
        return int(self.points.shape[0])


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


def _header(dim: int, labeled: bool) -> list[str]:
    return [f"x_{i}" for i in range(dim)] + (["y"] if labeled else [])


def save_csv(s: LabeledSet, path) -> None:
    """Write header x_0..x_{D-1},y and one row per item, in order."""
    _write_csv(path, s.points, s.labels)


def save_csv_unlabeled(u: UnlabeledSet, path) -> None:
    """Write header x_0..x_{D-1} and one row per point, in order."""
    _write_csv(path, u.points, None)


def _write_csv(path, points: np.ndarray, labels: np.ndarray | None) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(points.shape[1], labels is not None))
        for i, row in enumerate(points):
            w.writerow([FLOAT_FMT % v for v in row] + ([] if labels is None else [int(labels[i])]))


def load_csv(path, label_count: int | None = None) -> LabeledSet:
    """Read a dataset written by :func:`save_csv`, preserving row order.

    `label_count` defaults to max(label)+1 (1 for an empty file).
    """
    pts, lab = _read_csv(path, labeled=True)
    if label_count is None:
        label_count = int(lab.max()) + 1 if lab.size else 1
    return LabeledSet(pts, lab, label_count)


def load_csv_unlabeled(path) -> UnlabeledSet:
    """Read points written by :func:`save_csv_unlabeled`, preserving row order."""
    return UnlabeledSet(_read_csv(path, labeled=False)[0])


def _read_csv(path, labeled: bool) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels) of a CSV file; labels is empty unless `labeled`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: missing header") from None
        cols = [h.strip() for h in header]
        dim = len(cols) - int(labeled)
        if dim < 1 or cols != _header(dim, labeled):
            raise ValueError(f"{path}: line 1: bad header {cols!r}")
        points, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cols):
                raise ValueError(f"{path}: line {lineno}: expected {len(cols)} fields, got {len(row)}")
            try:
                points.append([float(v) for v in row[:dim]])
                if labeled:
                    labels.append(int(row[dim]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed numeric value") from None
    return np.asarray(points, dtype=np.float64).reshape(len(points), dim), np.asarray(labels, dtype=np.int64)
