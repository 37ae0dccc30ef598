"""Deterministic tie-broken k-nearest-neighbor classification.

Neighbors are ranked by (distance, insertion index): on exact distance
ties the training point that appears earlier in the dataset wins. Label
votes break ties toward the smallest label id. Both rules are fixed ahead
of time and independent of the feature map, so two maps that order all
candidate distances identically produce identical predictions.

Search is exact: every vote counts the labels of the k neighbors a full
stable sort of the squared distances puts first. One rule settles a row that
ties at its k-th squared distance K (:func:`_drop_last_ties`): its k nearest
are its points at or below K, less its last points at K in index order,
down to k. The full scan votes from float32 order keys: each squared
distance is rounded to float32 once, and rounding is monotone, so a smaller
key means a strictly smaller squared distance. A sort of each row's keys in
blocks of at most BLOCK columns, whose k + 1 smallest are then sorted
together, gives its k-th key t and its (k+1)-th. If they differ, the k keys
at or below t are the k nearest, and their labels are counted. A row whose
(k+1)-th key equals t (a float32 or float64 tie, or keys that overflow to
+inf or underflow to 0) has its K found by a float64 partition and goes to
the tie rule. Only a ranked list (:func:`k_nearest`) keeps the order of the
neighbours, with a stable row sort. On 1-D images the k nearest form one run
of sorted training positions, its start guessed from window midpoints and
checked exactly, and a vote is one difference of prefix label counts. If a
neighbour of the run is at K (a split block of copies, a point mirrored across
the query, or a rounding tie), the row's points at or below K form one window
of sorted positions around the run: its counts are one more such difference,
and its points at K go to the tie rule. No 1-D row pays a full row.

:func:`family_votes` votes every map of a family in one call, and
:func:`predict_batch` is its one-map case. Each distinct image column (a
coordinate of the points, shared by every identity and coordinate map that
reads it, or a linear map's own column) is laid out once. A 1-D image takes
one sorted run over all the queries. The other maps share one full scan over
row tiles: r query rows hold one (r, n) plane for each of the C distinct
columns the maps read, r the largest count, at least 1, with r * n * C <=
CHUNK_ENTRIES. Each map adds its own planes in column order by
:func:`distance.plane_sum`, so no vote depends on r. The planes, keys, sort
blocks, merge and 0/1 mask are allocated once per call, reused for every tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distance
from .core import LabeledSet, UnlabeledSet, as_point
from .featuremaps import FeatureMap, apply_batch

__all__ = ["KSchedule", "k_of_n", "KnnClassifier", "k_nearest", "predict", "predict_batch", "family_votes"]

CHUNK_ENTRIES = 250_000  # float64 entries of one tile's planes, counted as rows * n * columns
BLOCK = 512  # most columns of one block of the full scan's float32 row sort


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
    stable sort of each row of the :func:`distance.pair_sq` table, untiled,
    for the few queries of :func:`k_nearest`."""
    return np.argsort(distance.pair_sq(query_z[:, None], train_z[None]), axis=1, kind="stable")[:, :k]


def _sorted_runs(x: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's k nearest as one run of sorted training positions.

    Returns (u, start, rescan): u sorts x, in any order among equal values.
    Unless rescan[i], the k nearest of q[i] are u[start[i] : start[i] + k].

    The runs are found in sorted query order, their starts by :func:`_run_starts`
    from a search of the window midpoints. Nothing outside a run is nearer than
    its k-th, at K, nor past a neighbour of the run nearer than that neighbour.
    If neither neighbour is at K, the run is exactly the set at or below K,
    whatever the order of equal values; otherwise the row is rescanned.
    """
    u = np.argsort(x)  # the unstable sort is several times faster than a stable one
    xs = np.append(x[u], np.inf)  # xs[-1] and xs[n] read a +inf sentinel
    order = np.argsort(q)
    qs = q[order]
    s = _run_starts(xs, qs, k, np.searchsorted(xs[: x.size - k] * 0.5 + xs[k:-1] * 0.5, qs))
    kth = np.maximum((qs - xs[s]) ** 2, (qs - xs[s + k - 1]) ** 2)
    start, rescan = np.empty_like(s), np.empty(q.size, dtype=bool)
    start[order], rescan[order] = s, ((qs - xs[s - 1]) ** 2 == kth) | ((qs - xs[s + k]) ** 2 == kth)
    return u, start, rescan


def _run_starts(xs: np.ndarray, q: np.ndarray, k: int, guess: np.ndarray) -> np.ndarray:
    """Each query's first start s in [p - k, p], clipped to [0, n - k], where
    xs[s] is not strictly farther than xs[s + k]; xs holds n sorted values and
    a +inf sentinel, and p is the query's insertion point.

    d * d (the full scan's bits) never rises along the sorted values before p
    and never falls after it, so on the bracket the test is false, then true,
    and true at its end. Up to rounding, s is the first window whose midpoint
    is at or above the query. A guess is only a hint: clipped into the bracket,
    the test at it and at the start before it narrow the bracket, to [s, s]
    when the guess is s, and :func:`distance._first_true` finishes the rows
    left open, in 0 steps if there are none.
    """
    def near(at):
        return (q - xs[at]) ** 2 <= (q - xs[at + k]) ** 2

    p = np.searchsorted(xs, q)
    lo, hi = np.clip(p - k, 0, xs.size - 1 - k), np.minimum(p, xs.size - 1 - k)
    g = np.clip(guess, lo, hi)
    at_g, before = near(g), (g > lo) & near(g - 1)
    return distance._first_true(np.where(at_g, np.where(before, lo, g), g + 1), np.where(at_g, g - before, hi), near)


def _votes(train_t: np.ndarray, query_t: np.ndarray, maps: list, labels: np.ndarray, label_count: int, k: int) -> np.ndarray:
    """(len(maps), m) plurality votes over each query's k nearest; ties go to
    the smallest label id.

    train_t (C, n) and query_t (C, m) hold one image column per row, and
    maps[f] lists the rows of map f's image in column order. 1-D images vote
    from their sorted runs, the other maps from the full scan.
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
    prefix label counts over its run from :func:`_sorted_runs`.

    A rescanned row ties at its k-th squared distance K. d * d never rises and
    then never falls along the sorted values, so the points at or below K are
    one window [lo, hi) around the run, and two binary searches find its ends.
    Its counts are pref[hi] - pref[lo]; the window's points at K, expanded in
    parts of about CHUNK_ENTRIES, go to :func:`_drop_last_ties`.
    """
    u, start, rescan = _sorted_runs(x, q, k)
    hot = np.vstack([np.zeros(label_count, dtype=bool), labels[u, None] == np.arange(label_count)])
    pref = np.cumsum(hot, axis=0)  # label counts of sorted positions [0, i)
    votes = (pref[start + k] - pref[start]).argmax(axis=1)
    rows = np.flatnonzero(rescan)
    if rows.size:
        xs, q, s = x[u], q[rows], start[rows]
        kth = np.maximum((q - xs[s]) ** 2, (q - xs[s + k - 1]) ** 2)
        lo = distance._first_true(np.zeros_like(s), s, lambda i: (q - xs[i]) ** 2 <= kth)
        hi = distance._first_true(s + k, np.full_like(s, x.size), lambda i: (q - xs[i]) ** 2 > kth)
        step = max(1, CHUNK_ENTRIES // int((hi - lo).max()))
        for a in range(0, rows.size, step):
            part = slice(a, a + step)
            lane, at = distance._expand(lo[part], hi[part] - lo[part])
            tie = (q[part][lane] - xs[at]) ** 2 == kth[part][lane]
            votes[rows[part]] = _drop_last_ties(pref[hi[part]] - pref[lo[part]], lane[tie] * x.size + u[at[tie]], labels, k)
    return votes


def _threshold_votes(train_t: np.ndarray, query_t: np.ndarray, maps: list, labels: np.ndarray, label_count: int, k: int) -> np.ndarray:
    """:func:`_votes` from a full scan of every map on shared plane tiles.

    Each tile holds one plane per distinct column the maps read, and a map's
    squared distances are its planes' sum, rounded to a float32 key. Nothing
    is ranked. A row's k-th key t and its (k+1)-th come from sorting a copy of
    its keys in blocks of at most BLOCK columns (and a +inf sentinel, so a
    (k+1)-th exists at k = n), then, with more than one block, sorting the
    k + 1 smallest of every block together. If the (k+1)-th key exceeds t,
    exactly k keys are <= t, and their points are nearer than every other, so
    they are the k nearest under (squared distance, index) with no tie at the
    boundary: the row's label counts are one product of the 0/1 mask key <= t
    with the one-hot labels (exact: 0/1 sums below 2**24 in float32, 2**53 in
    float64, in any BLAS order). A row whose (k+1)-th key equals t (a float32
    tie, overflow to +inf, underflow to 0, or a float64 tie) is settled from
    its float64 sums by :func:`_tie_votes`, under the one tie rule. The planes,
    the keys, the block sort, the merge and the 0/1 mask are allocated once.
    """
    used = sorted({c for cols in maps for c in cols})
    slot = {c: i for i, c in enumerate(used)}
    maps = [[slot[c] for c in cols] for cols in maps]
    n, m = train_t.shape[1], query_t.shape[1]
    hot = (labels[:, None] == np.arange(label_count)).astype(np.float32 if n < 2**24 else np.float64)
    rows = min(max(1, CHUNK_ENTRIES // (n * len(used))), m)
    blocks = -(-(n + 1) // BLOCK)
    width = -(-(n + 1) // blocks)  # blocks * width >= n + 1: at least one +inf pad
    plane_buf = np.empty((len(used), rows, n))
    key_buf, mask_buf = np.empty((rows, n), dtype=np.float32), np.empty((rows, n), dtype=hot.dtype)
    sort_buf = np.full((rows, blocks, width), np.inf, dtype=np.float32)
    merge_buf = np.empty((rows, blocks, min(k + 1, width)), dtype=np.float32)
    sum_buf = np.empty((rows, n)) if any(len(cols) > 2 for cols in maps) else None
    votes = np.empty((len(maps), m), dtype=np.int64)
    query_t, train_t = query_t[used], train_t[used]
    for lo in range(0, m, rows):
        r = min(rows, m - lo)
        planes = plane_buf[:, :r]
        np.subtract(query_t[:, lo : lo + r, None], train_t[:, None, :], out=planes)
        planes *= planes
        key = key_buf[:r]
        with np.errstate(over="ignore"):  # a float64 sum past the float32 range keys as +inf
            for f, cols in enumerate(maps):
                if len(cols) > 2:
                    key[...] = distance.plane_sum(planes, cols, out=sum_buf[:r])
                else:
                    distance.plane_sum(planes, cols, out=key)  # one rounding of the float64 sum
                t, tie = _kth_keys(key, sort_buf[:r], merge_buf[:r], k)
                out = (np.less_equal(key, t, out=mask_buf[:r]) @ hot).argmax(axis=1)
                if tie is not None:
                    out[tie] = _tie_votes(distance.plane_sum(planes[np.ix_(cols, tie)], range(len(cols))), labels, hot, k)
                votes[f, lo : lo + r] = out
    return votes


def _kth_keys(key: np.ndarray, sort_buf: np.ndarray, merge_buf: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(t, tie): each row's k-th smallest key as an (r, 1) column, and the rows
    whose (k+1)-th smallest equals it (None if there are none).

    The keys fill the first n columns of the (r, blocks, width) sort_buf,
    whose blocks are sorted in place. Its other columns, at the end of the
    last block, hold a +inf pad: a sort leaves the largest values at the end
    of a block, so the pad stays in place from call to call. With more than
    one block, the k + 1 smallest of each (merge_buf holds min(k + 1, width)
    per block) are sorted together. A row's k + 1 smallest all lie among its
    blocks' k + 1 smallest, and the pad makes a (k+1)-th exist at k = n; a
    pad is +inf, so it can only tie a +inf t, and such a row goes to the
    exact route anyway.
    """
    r, n = key.shape
    ranked = sort_buf.reshape(r, -1)
    ranked[:, :n] = key
    sort_buf.sort(axis=2)
    if sort_buf.shape[1] > 1:
        merge_buf[...] = sort_buf[:, :, : merge_buf.shape[2]]
        ranked = merge_buf.reshape(r, -1)
        ranked.sort(axis=1)
    t = ranked[:, k - 1 : k]
    tie = ranked[:, k] == t[:, 0]
    return t, np.flatnonzero(tie) if np.count_nonzero(tie) else None


def _tie_votes(sq: np.ndarray, labels: np.ndarray, hot: np.ndarray, k: int) -> np.ndarray:
    """Votes of the rows of sq, float64 squared distances to every training
    point, with 0/1 labels `hot`: a partition finds each row's k-th, and
    :func:`_drop_last_ties` settles the row."""
    kth = np.partition(sq, k - 1, axis=1)[:, k - 1 : k]
    return _drop_last_ties((sq <= kth).astype(hot.dtype) @ hot, np.flatnonzero(sq == kth), labels, k)


def _drop_last_ties(counts: np.ndarray, ties: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Votes from counts[i], row i's label counts at or below its k-th squared
    distance K, and ties, the keys i * n + j of its points j at K in any
    order. Its k nearest under (squared distance, index) are its points below
    K plus its first points at K in index order, up to k, so the labels of its
    last `excess` points at K are taken off its counts."""
    label_count, excess = counts.shape[1], counts.sum(axis=1).astype(np.int64) - k
    rows_at, cols_at = np.divmod(np.sort(ties), labels.size)  # each row's points at K, in index order
    ends = np.searchsorted(rows_at, np.arange(1, counts.shape[0] + 1))
    # ends[rows_at] - i is 1 at a row's last point at K, 2 at the one before it, ...
    last = np.flatnonzero(ends[rows_at] - np.arange(rows_at.size) <= excess[rows_at])
    counts -= np.bincount(rows_at[last] * label_count + labels[cols_at[last]], minlength=counts.size).reshape(counts.shape)
    return counts.argmax(axis=1)


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
