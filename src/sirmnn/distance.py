"""Exact squared distances: pair bits, and each query's nearest reference.

Every squared distance in the package is one plane sum of direct coordinate
differences (no norm-expansion shortcut, so symmetric inputs tie exactly),
(q0 - r0)**2 + (q1 - r1)**2 + ..., added left to right, so its bits depend
only on the two points, not on the memory layout or the other points:
:func:`pair_sq` on paired rows or as a broadcast (m, n) table and
:func:`plane_sum` on the k-NN scan's coordinate planes give the same bits.

The nearest-reference minima (:func:`min_sq`, :func:`min_sq_by_label`,
:func:`min_pair_sq`) never fill the full query x reference table. Two facts
about rounded arithmetic make their pruning exact, so each minimum has the
bits of the full scan's:

- Rounded subtraction is monotone in the reference value x and squaring is
  monotone in |d|, so along sorted references fl(d * d), d = fl(q - x),
  never rises and then never falls.
- Each term of the plane sum is >= 0, and fl(a + b) >= a for b >= 0, so a
  pair's plane sum is at least fl(fl(dx * dx) + fl(dy * dy)) for its
  coordinate-0 and coordinate-1 differences, and at least that sum over any
  smaller |dx| and |dy|.

1-D references need no search: by the first fact the nearest is one of the
two sorted values around the query's insertion point. References of dim >= 2
are split into c = round(n ** (1/3)) equal-count strips along coordinate 0,
each sorted by coordinate 1. A query's upper bound ub is its plane sum to
its coordinate-1 neighbours in its own strip and among all references (an
actual distance, so no less than the minimum). By the second fact a strip
can hold the minimum only if fl(gx * gx + gy * gy) <= ub, with gx and gy the
query's gaps to the strip's bounding box; inside a kept strip, only the
coordinate-1 run with fl(gx * gx + dy * dy) <= ub can, and by the first
fact that run is contiguous, so a binary search on the exact test finds its
two ends. The kept pairs are summed by :func:`pair_sq` and reduced per
query; :func:`min_pair_sq` needs only the least of all, so it prunes every
query against the least bound.

Cost, for m queries against n references: sorting the references,
O(n log n); the bounds, O(m log n); the strip test, m * c entries; the run
ends, O(log(n / c)) steps for each kept (query, strip) pair; and one plane
sum per kept reference. The strip width sets the kept references per query,
about n / c**2 on evenly spread points, so c ~ n ** (1/3) balances the strip
test against the plane sums. Every step is a whole-array numpy call: there
is no Python loop over strips or queries, only over the binary-search steps.
"""

from __future__ import annotations

import numpy as np

def plane_sum(planes: np.ndarray, cols, out: np.ndarray | None = None) -> np.ndarray:
    """planes[cols[0]] + planes[cols[1]] + ..., added left to right into `out`
    (a fresh array if None)."""
    if out is None:
        out = np.empty_like(planes[0])
    if len(cols) == 1:
        out[...] = planes[cols[0]]
    else:
        np.add(planes[cols[0]], planes[cols[1]], out=out)
    for c in cols[2:]:
        out += planes[c]
    return out


def pair_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a[..., 0] - b[..., 0])**2 + (a[..., 1] - b[..., 1])**2 + ... over the
    last axis, which broadcasts: rows of equal shape give paired distances,
    and pair_sq(a[:, None], b[None]) the (m, n) table of every pair."""
    sq = a[..., 0] - b[..., 0]
    sq *= sq
    plane = None  # one scratch plane, reused for every further coordinate
    for j in range(1, a.shape[-1]):
        plane = np.subtract(a[..., j], b[..., j], out=plane)
        plane *= plane
        sq += plane
    return sq


def min_sq(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared distance from each query row to its nearest reference."""
    if refs.shape[1] == 1:
        xs = np.sort(refs[:, 0])
        return _sorted_min_sq(xs, queries[:, 0], np.searchsorted(xs, queries[:, 0]))
    return _strip_search(queries, refs, shared=False)


def min_pair_sq(queries: np.ndarray, refs: np.ndarray) -> float:
    """Smallest squared distance between any query row and any reference."""
    if refs.shape[1] == 1:
        return float(min_sq(queries, refs).min())
    return float(_strip_search(queries, refs, shared=True))


def min_sq_by_label(queries: np.ndarray, refs: np.ndarray, labels: np.ndarray, label_count: int) -> np.ndarray:
    """(label_count, m) table: row l holds each query's :func:`min_sq` to the
    references of label l, and stays +inf for a label with no references.

    Searches each present label's references on their own, 1-D queries in
    sorted order (consecutive searches then land close together, which is
    faster than a random order). min is exact, so the column minimum has the
    bits of :func:`min_sq` on all references.
    """
    out = np.full((label_count, queries.shape[0]), np.inf)
    present = np.flatnonzero(np.bincount(labels, minlength=label_count))
    if refs.shape[1] == 1:
        order = np.argsort(queries[:, 0])
        q = queries[order, 0]
        for lab in present:
            xs = np.sort(refs[labels == lab, 0])
            out[lab, order] = _sorted_min_sq(xs, q, np.searchsorted(xs, q))
        return out
    for lab in present:
        out[lab] = _strip_search(queries, refs[labels == lab], shared=False)
    return out


def _strip_search(queries: np.ndarray, refs: np.ndarray, shared: bool):
    """Each query's nearest squared distance (or, if `shared`, the smallest
    over all queries) among references of dim >= 2, by the strip search of
    the module docstring."""
    n = refs.shape[0]
    count = max(1, round(n ** (1 / 3)))  # strips, as the cost model sets
    bnd = np.arange(count + 1) * n // count  # strip s holds rows bnd[s]:bnd[s + 1] of pts
    by_x = np.argsort(refs[:, 0])
    x = refs[by_x, 0]
    x_lo, x_hi = x[bnd[:-1]], x[bnd[1:] - 1]
    row_strip = np.repeat(np.arange(count), np.diff(bnd))
    pts = refs[by_x[np.lexsort((refs[by_x, 1], row_strip))]]
    q0, q1 = queries[:, 0], queries[:, 1]
    ys = pts[:, 1]
    # The upper bound: the distance to the query's coordinate-1 neighbours in
    # its own strip and among all references. A row's key is its strip, then
    # the number of references below its coordinate 1; a query's key in its
    # own strip therefore sorts in front of exactly that strip's rows with
    # coordinate 1 >= q1.
    by_y = refs[np.argsort(refs[:, 1])]
    y_sorted = np.ascontiguousarray(by_y[:, 1])
    at_y = np.searchsorted(y_sorted, q1)
    keys = row_strip * (n + 1) + np.searchsorted(y_sorted, ys)
    own = np.maximum(np.searchsorted(x_lo, q0, side="right") - 1, 0)
    lo, hi = bnd[own], bnd[own + 1]
    at = np.searchsorted(keys, own * (n + 1) + at_y)
    ub = np.minimum.reduce([
        pair_sq(queries, pts[np.maximum(at - 1, lo)]),
        pair_sq(queries, pts[np.minimum(at, hi - 1)]),
        pair_sq(queries, by_y[np.maximum(at_y - 1, 0)]),
        pair_sq(queries, by_y[np.minimum(at_y, n - 1)]),
    ])
    if shared:
        ub = np.full_like(ub, ub.min())
    # The strips whose bounding box passes fl(gx * gx + gy * gy) <= ub, with
    # gx and gy the query's gaps to the box along coordinates 0 and 1.
    gap = _sq(_gap(q0[:, None], x_lo, x_hi))
    box = gap + _sq(_gap(q1[:, None], ys[bnd[:-1]], ys[bnd[1:] - 1]))
    qi, strip = np.nonzero(box <= ub[:, None])
    # In each, the run of references that pass fl(gx * gx + dy * dy) <= ub.
    # One binary search finds both ends: the first row that passes with
    # d = max(qy - y, 0), and, over the negated copy of the rows, the first
    # that fails with d = max(y - qy, 0) = max(-qy - -y, 0).
    k = qi.size
    left = np.arange(2 * k) < k
    signed_y = np.concatenate([ys, -ys])
    signed_q = np.concatenate([q1[qi], -q1[qi]])
    gap2, u2 = np.tile(gap[qi, strip], 2), np.tile(ub[qi], 2)
    ends = _first_true(
        np.r_[bnd[strip], bnd[strip] + n],
        np.r_[bnd[strip + 1], bnd[strip + 1] + n],
        lambda i: (gap2 + _sq(np.maximum(signed_q - signed_y[i], 0)) <= u2) == left,
    )
    start, end = ends[:k], ends[k:] - n
    pair, ref = _expand(start, end - start)
    sq = pair_sq(queries[qi[pair]], pts[ref])
    if shared:
        return sq.min()
    # Runs follow query order, and the bound's own reference lies in one of them.
    return np.minimum.reduceat(sq, np.searchsorted(qi[pair], np.arange(queries.shape[0])))


def _gap(q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """fl(q - x) of least magnitude over x in [lo, hi]: 0 inside, else q - lo or q - hi."""
    return np.maximum(q - hi, 0) + np.minimum(q - lo, 0)


def _first_true(lo: np.ndarray, hi: np.ndarray, pred) -> np.ndarray:
    """Per lane, the first i in [lo, hi) with pred(i), or hi; pred(i) must be
    false and then true along each lane's range."""
    last = max(int(hi.max(initial=0)) - 1, 0)  # a settled lane's mid may sit at the end
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        t = pred(np.minimum(mid, last))
        hi = np.where(t, mid, hi)
        lo = np.where(t, lo, np.minimum(mid + 1, hi))
    return lo


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lane, index) for every index in each lane's [start, start + count)."""
    lane = np.repeat(np.arange(starts.size), counts)
    offset = np.arange(lane.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return lane, starts[lane] + offset


def _sq(d: np.ndarray) -> np.ndarray:
    return d * d


def _sorted_min_sq(xs: np.ndarray, q: np.ndarray, at: np.ndarray) -> np.ndarray:
    """d * d to the nearer of the sorted values xs[at - 1] and xs[at] around
    each query's insertion point `at`, clipped to the ends."""
    dl = q - xs[np.maximum(at - 1, 0)]
    dr = q - xs[np.minimum(at, xs.size - 1)]
    return np.minimum(dl * dl, dr * dr)
