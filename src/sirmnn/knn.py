"""Deterministic tie-broken k-nearest-neighbor classification.

Neighbors are ranked by (distance, insertion index): on exact distance
ties the training point that appears earlier in the dataset wins. Label
votes break ties toward the smallest label id. Both rules are fixed ahead
of time and independent of the feature map, so two maps that order all
candidate distances identically produce identical predictions.

Search is exact. The full scan keeps each query row's k nearest without
sorting all n distances: a partition finds the k-th smallest squared
distance, every training point at or below it is a candidate (so a tie run
crossing position k stays whole), and one stable sort of the candidates by
squared distance, in index order, ranks them. 1-D images are first ranked
inside a window of the 2k sorted training values around each query, and
only the rows the window cannot settle are scanned in full. Either route
equals the first k columns of a full stable sort of the squared distances,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distance
from .core import LabeledSet, UnlabeledSet, as_point
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


def _images(fmap: FeatureMap | None, points: np.ndarray) -> np.ndarray:
    return points if fmap is None else apply_batch(fmap, points)


def _neighbor_indices(train_z: np.ndarray, query_z: np.ndarray, k: int) -> np.ndarray:
    """(m, k) neighbor index matrix ranked by (squared distance, index).

    1-D images go through :func:`_window_search` first. The rows it does not
    settle, and every row of higher-dimensional images, are scanned against
    all n training images in chunks, each reduced by :func:`_top_k`, an
    exact selection equal to the first k columns of a stable row sort.
    """
    out = np.empty((query_z.shape[0], k), dtype=np.int64)
    if train_z.shape[1] == 1:
        rows = _window_search(train_z[:, 0], query_z[:, 0], k, out)
    else:
        rows = np.arange(query_z.shape[0])
    for lo, sq in distance.sq_blocks(query_z[rows], train_z):
        out[rows[lo : lo + sq.shape[0]]] = _top_k(sq, k)
    return out


def _window_search(x: np.ndarray, q: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """Rank 1-D neighbors inside a window of the sorted training values.

    Writes out[i] for every query q[i] and returns the rows whose window
    result may differ from the full ranking; the caller rescans those.

    The training values are stable-sorted once, so equal values keep index
    order. Each query takes the w = min(n, 2k) consecutive sorted values
    starting k places before its insertion point (clipped to the ends), and
    its squared distances d * d, d = q - x, are the bits the full scan
    computes. A stable sort of each window row ranks them. Rounded
    subtraction is monotone in x and squaring is monotone in |d|, so along
    the sorted order the squared distance never rises and then never falls
    (the images are finite, so no NaN arises). A row is settled when

    - the sorted value just outside either end of its window (a +-inf
      sentinel past the ends of the array) is farther than the k-th ranked
      window value, so every value outside the window is farther still; and
    - every run of equal distances among its k ranked ones, and the run of
      all window distances equal to the k-th, comes from one repeated
      training value. Copies of one value sit at consecutive sorted
      positions in index order, which the stable window sort keeps. Any
      other tie (a point mirrored across the query, or a rounding tie) may
      need index order across values, so the row is rescanned.
    """
    n = x.size
    w = min(n, 2 * k)
    order = np.argsort(x, kind="stable")
    xs = np.concatenate(([-np.inf], x[order], [np.inf]))
    cols = np.arange(w + 2)  # the window and its two outside neighbors
    rescan = np.zeros(q.size, dtype=bool)
    chunk = max(1, distance.CHUNK_ENTRIES // (w + 2))
    for lo in range(0, q.size, chunk):
        qc = q[lo : lo + chunk, None]
        start = np.clip(np.searchsorted(xs, qc) - 1 - k, 0, n - w)
        vals = xs[start + cols]
        d = qc - vals
        sq = d * d
        rank = np.argsort(sq[:, 1:-1], axis=1, kind="stable")[:, :k]
        ranked = np.take_along_axis(sq, rank + 1, axis=1)
        ranked_vals = np.take_along_axis(vals, rank + 1, axis=1)
        kth, kth_val = ranked[:, -1:], ranked_vals[:, -1:]
        spill = (sq[:, [0, -1]] <= kth).any(axis=1)
        mixed = (ranked[:, 1:] == ranked[:, :-1]) & (ranked_vals[:, 1:] != ranked_vals[:, :-1])
        mixed_kth = (sq == kth) & (vals != kth_val)
        rescan[lo : lo + qc.shape[0]] = spill | mixed.any(axis=1) | mixed_kth.any(axis=1)
        out[lo : lo + qc.shape[0]] = order[start + rank]
    return np.flatnonzero(rescan)


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
    c = KnnClassifier(train, k, fmap)
    q = as_point(query)
    if q.shape[0] != train.dim:
        raise ValueError("query dimension does not match training set")
    query_z = _images(fmap, q.reshape(1, -1))
    return [int(i) for i in _neighbor_indices(c._train_z, query_z, k)[0]]


def _vote(neighbor_labels: np.ndarray, label_count: int) -> np.ndarray:
    """Plurality vote per row; ties go to the smallest label id."""
    m = neighbor_labels.shape[0]
    keys = np.arange(m)[:, None] * label_count + neighbor_labels
    counts = np.bincount(keys.ravel(), minlength=m * label_count).reshape(m, label_count)
    return counts.argmax(axis=1)


def predict(c: KnnClassifier, query) -> int:
    """Predicted label id for a single query point."""
    return int(predict_batch(c, UnlabeledSet(as_point(query).reshape(1, -1)))[0])


def predict_batch(c: KnnClassifier, queries: UnlabeledSet) -> np.ndarray:
    """Elementwise :func:`predict` over an ordered query set."""
    if queries.dim != c.train.dim:
        raise ValueError("query dimension does not match training set")
    if len(queries) == 0:
        return np.empty(0, dtype=np.int64)
    query_z = _images(c.fmap, queries.points)
    idx = _neighbor_indices(c._train_z, query_z, c.k)
    return _vote(c.train.labels[idx], c.train.label_count).astype(np.int64)
