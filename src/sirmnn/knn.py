"""Deterministic tie-broken k-nearest-neighbor classification.

Neighbors are ranked by (distance, insertion index): on exact distance
ties the training point that appears earlier in the dataset wins. Label
votes break ties toward the smallest label id. Both rules are fixed ahead
of time and independent of the feature map, so two maps that order all
candidate distances identically produce identical predictions.

Search is exact: every vote counts the labels of the k neighbors a full
stable sort of the squared distances puts first. The full scan votes without
ranking: a partition finds each row's k-th smallest squared distance, the
labels at or below it are counted, and a row with more than k of those gives
back the labels of its last surplus ties in index order. Only a ranked list
(:func:`k_nearest`) sorts, with a stable row sort. On 1-D images the k
nearest form one run of sorted training positions, found by a binary search
in about log2 k steps; a vote is one difference of prefix label counts, and
a row whose run has a neighbour at its k-th distance (a copy split by the
run, a point mirrored across the query, or a rounding tie) goes to the full
scan.

:func:`family_votes` votes every map of a family in one call, and
:func:`predict_batch` is its one-map case. Each distinct image column (a
coordinate of the points, shared by every identity and coordinate map that
reads it, or a linear map's own column) is laid out once. A 1-D image takes
one sorted run over all the queries. The other maps share one full scan over
row tiles of :func:`distance.plane_tiles`: the tile budget is counted over
the distinct columns, each column's plane is computed once per tile, and
each map adds its own planes. The scan's sum, partition scratch and 0/1
mask are allocated once per call and reused for every tile and map, as is
the tile itself, so a tile's values are valid only until the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distance
from .core import LabeledSet, UnlabeledSet, as_point
from .featuremaps import FeatureMap, apply_batch

__all__ = ["KSchedule", "k_of_n", "KnnClassifier", "k_nearest", "predict", "predict_batch", "family_votes"]


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
        _check(self.train, self.k, self.fmap)


def _check(train: LabeledSet, k: int, fmap: FeatureMap | None) -> None:
    if len(train) == 0:
        raise ValueError("training set must be non-empty")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in [1, {len(train)}], got {k}")
    if fmap is not None and fmap.input_dim != train.dim:
        raise ValueError("feature map dimension does not match training set")


def _images(fmap: FeatureMap | None, points: np.ndarray) -> np.ndarray:
    return points if fmap is None else apply_batch(fmap, points)


def _neighbor_indices(train_z: np.ndarray, query_z: np.ndarray, k: int) -> np.ndarray:
    """(m, k) neighbor index matrix ranked by (squared distance, index): a
    stable sort of each row of the full scan."""
    out = np.empty((query_z.shape[0], k), dtype=np.int64)
    for lo, sq in distance.sq_blocks(query_z, train_z):
        out[lo : lo + sq.shape[0]] = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return out


def _sorted_runs(x: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's k nearest as one run of sorted training positions.

    Returns (u, start, rescan): u sorts x, in any order among equal values.
    Unless rescan[i], the k nearest of q[i] are u[start[i] : start[i] + k].

    Along the sorted values d * d (the full scan's bits; rounding is monotone)
    never rises before the query's insertion point p and never falls after it.
    A binary search over the starts s in [p - k, p], clipped to [0, n - k],
    moves right while d * d at s exceeds that at s + k, so nothing outside the
    run is nearer than its k-th, at K, and by the same shape nothing past a
    neighbour of the run is nearer than that neighbour. If neither neighbour
    is at K, the run is exactly the set at or below K, whatever the order of
    equal values; otherwise the row is rescanned.
    """
    n = x.size
    u = np.argsort(x)  # the unstable sort is several times faster than a stable one
    xs = np.append(x[u], np.inf)  # xs[-1] and xs[n] read a +inf sentinel

    def sq(at):
        return (q - xs[at]) ** 2

    p = np.searchsorted(xs, q)
    s, hi = np.clip(p - k, 0, n - k), np.minimum(p, n - k)
    for _ in range(int(k).bit_length()):
        mid = (s + hi) // 2
        right = sq(mid) > sq(mid + k)
        s, hi = np.where(right, mid + 1, s), np.where(right, hi, mid)
    kth = np.maximum(sq(s), sq(s + k - 1))
    return u, s, (sq(s - 1) == kth) | (sq(s + k) == kth)


def _votes(train_t: np.ndarray, query_t: np.ndarray, maps: list, labels: np.ndarray, label_count: int, k: int) -> np.ndarray:
    """(len(maps), m) plurality votes over each query's k nearest; ties go to
    the smallest label id.

    train_t (C, n) and query_t (C, m) hold one image column per row, and
    maps[f] lists the rows of map f's image in column order. 1-D images vote
    from their sorted runs, the other maps and the rescanned rows from the
    full scan.
    """
    votes = np.empty((len(maps), query_t.shape[1]), dtype=np.int64)
    scan = [f for f, cols in enumerate(maps) if len(cols) > 1]
    if scan:
        votes[scan] = _threshold_votes(train_t, query_t, [maps[f] for f in scan], labels, label_count, k)
    for f, cols in enumerate(maps):
        if len(cols) == 1:
            votes[f] = _run_votes(train_t[cols[0]], query_t[cols[0]], labels, label_count, k)
    return votes


def _run_votes(x: np.ndarray, q: np.ndarray, labels: np.ndarray, label_count: int, k: int) -> np.ndarray:
    """Votes on 1-D images x (training) and q (queries), each one difference of
    prefix label counts over its run from :func:`_sorted_runs`; its rescanned
    rows go to the full scan."""
    u, start, rescan = _sorted_runs(x, q, k)
    hot = np.vstack([np.zeros(label_count, dtype=bool), labels[u, None] == np.arange(label_count)])
    pref = np.cumsum(hot, axis=0)  # label counts of sorted positions [0, i)
    votes = (pref[start + k] - pref[start]).argmax(axis=1)
    rows = np.flatnonzero(rescan)
    if rows.size:
        votes[rows] = _threshold_votes(x[None], q[None, rows], [[0]], labels, label_count, k)[0]
    return votes


def _threshold_votes(train_t: np.ndarray, query_t: np.ndarray, maps: list, labels: np.ndarray, label_count: int, k: int) -> np.ndarray:
    """:func:`_votes` from a full scan of every map on shared plane tiles.

    Each tile holds one plane per distinct column the maps read, and a map's
    squared distances are its planes' sum. Nothing is ranked. A row's k
    nearest under (squared distance, index) are its columns below its k-th
    smallest value, plus the first of the columns equal to it, in column
    order, up to k. So the row's label counts at or below that value, less
    those of its last `excess` equal columns, are the counts of its k
    nearest. The counts are products of 0/1 matrices: sums of integers below
    2**24 in float32 (2**53 in float64), exact in any BLAS summation order.
    The sum, the partition scratch and the 0/1 mask are allocated once.
    """
    used = sorted({c for cols in maps for c in cols})
    slot = {c: i for i, c in enumerate(used)}
    maps = [[slot[c] for c in cols] for cols in maps]
    n, m = train_t.shape[1], query_t.shape[1]
    dtype = np.float32 if n < 2**24 else np.float64
    hot = (labels[:, None] == np.arange(label_count)).astype(dtype)
    rows = min(distance.tile_rows(n, len(used)), m)
    sum_buf, part_buf, mask_buf = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n), dtype=dtype)
    votes = np.empty((len(maps), m), dtype=np.int64)
    for lo, planes in distance.plane_tiles(query_t[used], train_t[used]):
        r = planes.shape[1]
        for f, cols in enumerate(maps):
            sq = distance.plane_sum(planes, cols, out=sum_buf[:r])
            part = part_buf[:r]
            part[...] = sq
            part.partition(k - 1, axis=1)
            kth = part[:, k - 1 : k]
            counts = np.less_equal(sq, kth, out=mask_buf[:r]) @ hot
            excess = counts.sum(axis=1).astype(np.int64) - k
            if excess.any():
                rows_at, cols_at = np.divmod(np.flatnonzero(sq == kth), n)  # each row's equal columns, in order
                ends = np.searchsorted(rows_at, np.arange(1, r + 1))
                # ends[rows_at] - i is 1 at a row's last equal column, 2 at the one before it, ...
                last = np.flatnonzero(ends[rows_at] - np.arange(rows_at.size) <= excess[rows_at])
                counts -= np.bincount(
                    rows_at[last] * label_count + labels[cols_at[last]], minlength=counts.size
                ).reshape(counts.shape)
            votes[f, lo : lo + r] = counts.argmax(axis=1)
    return votes


def _columns(maps, train_points: np.ndarray, query_points: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """(train_t, query_t, cols): the distinct image columns of the maps, one
    row each, and the rows of each map's image in column order.

    No map and identity and coordinate maps read coordinates of the points,
    one row each however many maps read it; a linear map's image columns are
    its own rows.
    """
    rows, cols, at = [], [], {}  # rows: (train, query) column pairs; at: coordinate -> row
    for fmap in maps:
        if fmap is not None and fmap.kind == "linear":
            zt, zq = apply_batch(fmap, train_points), apply_batch(fmap, query_points)
            cols.append(list(range(len(rows), len(rows) + zt.shape[1])))
            rows += zip(zt.T, zq.T)
            continue
        coords = fmap.coords if fmap is not None and fmap.kind == "coordinate_subset" else range(train_points.shape[1])
        for c in coords:
            if c not in at:
                at[c] = len(rows)
                rows.append((train_points[:, c], query_points[:, c]))
        cols.append([at[c] for c in coords])
    train_rows, query_rows = zip(*rows)
    return np.array(train_rows), np.array(query_rows), cols


def family_votes(train: LabeledSet, k: int, maps, queries: UnlabeledSet) -> np.ndarray:
    """(len(maps), m) votes: row f holds each query's plurality label among
    its k nearest training points under maps[f] (None: the points
    themselves), ties toward the smallest label id.

    The maps share one call: each distinct image column is laid out once,
    and the full scan computes its plane once per tile for every map that
    reads it.
    """
    for fmap in maps:
        _check(train, k, fmap)
    if queries.dim != train.dim:
        raise ValueError("query dimension does not match training set")
    if not maps or len(queries) == 0:
        return np.empty((len(maps), len(queries)), dtype=np.int64)
    train_t, query_t, cols = _columns(maps, train.points, queries.points)
    return _votes(train_t, query_t, cols, train.labels, train.label_count, k)


def k_nearest(train: LabeledSet, query, k: int, fmap: FeatureMap | None = None) -> list[int]:
    """Indices of the k nearest training points to `query`, tie-broken by order."""
    _check(train, k, fmap)
    q = as_point(query)
    if q.shape[0] != train.dim:
        raise ValueError("query dimension does not match training set")
    nearest = _neighbor_indices(_images(fmap, train.points), _images(fmap, q.reshape(1, -1)), k)
    return [int(i) for i in nearest[0]]


def predict(c: KnnClassifier, query) -> int:
    """Predicted label id for a single query point."""
    return int(predict_batch(c, UnlabeledSet(as_point(query).reshape(1, -1)))[0])


def predict_batch(c: KnnClassifier, queries: UnlabeledSet) -> np.ndarray:
    """Elementwise :func:`predict` over an ordered query set."""
    return family_votes(c.train, c.k, [c.fmap], queries)[0]
