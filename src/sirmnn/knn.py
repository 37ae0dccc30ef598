"""Deterministic tie-broken k-nearest-neighbor classification.

Neighbors are ranked by (distance, insertion index): on exact distance
ties the training point that appears earlier in the dataset wins. Label
votes break ties toward the smallest label id. Both rules are fixed ahead
of time and independent of the feature map, so two maps that order all
candidate distances identically produce identical predictions.

Search is exact brute force over squared distances. Each query row keeps
its k nearest without sorting all n distances: a partition finds the k-th
smallest squared distance, every training point at or below it is a
candidate (so a tie run crossing position k stays whole), and one stable
sort of the candidates by squared distance, in index order, ranks them.
The result equals the first k columns of a full stable sort, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, UnlabeledSet, as_point
from .distance import sq_blocks
from .featuremaps import FeatureMap, apply_batch

__all__ = ["KSchedule", "k_of_n", "KnnClassifier", "k_nearest", "predict", "predict_batch"]


@dataclass(frozen=True)
class KSchedule:
    """Rule mapping a training-set size to a neighbor count.

    rule "log_squared" emits ceil(ln(n)^2); rule "fixed" emits the
    constant k. Emitted values are clamped to [1, n].
    """

    rule: str = "log_squared"
    k: int | None = None

    def __post_init__(self):
        if self.rule not in ("log_squared", "fixed"):
            raise ValueError(f"unknown schedule rule {self.rule!r}")
        if self.rule == "fixed" and (self.k is None or self.k < 1):
            raise ValueError("fixed schedule needs k >= 1")


def k_of_n(sched: KSchedule, n: int) -> int:
    """Scheduled neighbor count for a training set of size n, clamped to [1, n]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if sched.rule == "fixed":
        raw = sched.k
    else:
        raw = math.ceil(math.log(n) ** 2)
    return min(n, max(1, raw))


@dataclass(frozen=True, eq=False)
class KnnClassifier:
    """k-NN predictor bound to (training set, optional feature map, k).

    Prediction is a pure function of the training order, k, the map, and
    the query; instances are immutable and safe to share across threads.
    """

    train: LabeledSet
    k: int
    fmap: FeatureMap | None = None

    def __post_init__(self):
        if len(self.train) == 0:
            raise ValueError("training set must be non-empty")
        if not 1 <= self.k <= len(self.train):
            raise ValueError(f"k must be in [1, {len(self.train)}], got {self.k}")
        if self.fmap is not None and self.fmap.input_dim != self.train.dim:
            raise ValueError("feature map dimension does not match training set")
        # Precompute train images once; reused by every query.
        object.__setattr__(self, "_train_z", _images(self.fmap, self.train.points))

    def predict(self, query) -> int:
        return predict(self, query)

    def predict_batch(self, queries: UnlabeledSet) -> np.ndarray:
        return predict_batch(self, queries)


def _images(fmap: FeatureMap | None, points: np.ndarray) -> np.ndarray:
    return points if fmap is None else apply_batch(fmap, points)


def _neighbor_indices(train_z: np.ndarray, query_z: np.ndarray, k: int) -> np.ndarray:
    """(m, k) neighbor index matrix ranked by (squared distance, index).

    Each chunk of distance rows is reduced by :func:`_top_k`, an exact
    selection equal to the first k columns of a stable row sort.
    """
    out = np.empty((query_z.shape[0], k), dtype=np.int64)
    for lo, sq in sq_blocks(query_z, train_z):
        out[lo : lo + sq.shape[0]] = _top_k(sq, k)
    return out


def _top_k(sq: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row, ranked by (value, column).

    A partition finds each row's k-th smallest value. Every column at or
    below it is a candidate, so a run of ties that crosses position k stays
    whole. Only the candidates are sorted: each row's candidates, in
    ascending column order, fill the front of a row padded with +inf, and
    one stable row sort ranks them. Equal values keep the smaller column
    first, and the padding sorts after every candidate.
    """
    # Fancy indexing copies kth, so the partitioned copy of sq is freed here.
    kth = np.partition(sq, k - 1, axis=1)[:, [k - 1]]
    rows, cols = np.divmod(np.flatnonzero(sq <= kth), sq.shape[1])
    starts = np.searchsorted(rows, np.arange(sq.shape[0]))
    width = np.diff(starts, append=rows.size).max()  # most candidates in one row
    padded = np.full((sq.shape[0], width), np.inf)
    padded[rows, np.arange(rows.size) - starts[rows]] = sq[rows, cols]
    rank = np.argsort(padded, axis=1, kind="stable")[:, :k]
    return cols[starts[:, None] + rank]


def k_nearest(train: LabeledSet, query, k: int, fmap: FeatureMap | None = None) -> list[int]:
    """Indices of the k nearest training points to `query`, tie-broken by order."""
    if len(train) == 0:
        raise ValueError("training set must be non-empty")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in [1, {len(train)}], got {k}")
    q = as_point(query)
    if fmap is None and q.shape[0] != train.dim:
        raise ValueError("query dimension does not match training set")
    train_z = _images(fmap, train.points)
    query_z = _images(fmap, q.reshape(1, -1))
    return [int(i) for i in _neighbor_indices(train_z, query_z, k)[0]]


def _vote(neighbor_labels: np.ndarray, label_count: int) -> np.ndarray:
    """Plurality vote per row; ties go to the smallest label id."""
    counts = (neighbor_labels[:, :, None] == np.arange(label_count)[None, None, :]).sum(axis=1)
    return counts.argmax(axis=1)


def predict(c: KnnClassifier, query) -> int:
    """Predicted label id for a single query point."""
    q = as_point(query)
    if q.shape[0] != c.train.dim:
        raise ValueError("query dimension does not match training set")
    query_z = _images(c.fmap, q.reshape(1, -1))
    idx = _neighbor_indices(c._train_z, query_z, c.k)
    return int(_vote(c.train.labels[idx], c.train.label_count)[0])


def predict_batch(c: KnnClassifier, queries: UnlabeledSet) -> np.ndarray:
    """Elementwise :func:`predict` over an ordered query set."""
    if queries.dim != c.train.dim:
        raise ValueError("query dimension does not match training set")
    if len(queries) == 0:
        return np.empty(0, dtype=np.int64)
    query_z = _images(c.fmap, queries.points)
    idx = _neighbor_indices(c._train_z, query_z, c.k)
    return _vote(c.train.labels[idx], c.train.label_count).astype(np.int64)
