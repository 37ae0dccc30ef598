"""Exact squared distances from query rows to a reference set, in chunks.

Squared distances are computed by direct coordinate differences (no
norm-expansion shortcut), so that symmetric inputs tie exactly. Each entry
is a plane sum in coordinate order, (q0 - r0)**2 + (q1 - r1)**2 + ...,
added left to right, so its bits depend only on the two points: not on the
memory layout of the inputs, the other references or the chunk. Queries
are evaluated in row chunks: a chunk of r rows against n references of
dimension dim is summed from (r, n) coordinate planes, and r is the
largest count with r * n * dim <= CHUNK_ENTRIES, but at least 1. Every
result is independent of the chunk size.

:func:`min_sq` answers 1-D references without a scan. Rounded subtraction
is monotone in the reference value x and squaring is monotone in |d|, so
along the sorted references the squared distance d * d, d = q - x, never
rises and then never falls. The nearest reference is therefore one of the
two sorted values around the query's insertion point, and d * d is the bit
pattern :func:`sq_blocks` yields for dim 1. :func:`min_sq_by_label` keeps
one such minimum per reference label.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

CHUNK_ENTRIES = 2_000_000  # float64 entries of one chunk, counted as rows * n * dim


def sq_blocks(queries: np.ndarray, refs: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, sq) with sq[i, j] the squared distance of queries[lo + i] to refs[j]."""
    chunk = max(1, CHUNK_ENTRIES // max(1, refs.shape[0] * refs.shape[1]))
    # One contiguous row per coordinate, so every plane reads unit strides.
    qt = np.ascontiguousarray(queries.T)
    rt = np.ascontiguousarray(refs.T)
    for lo in range(0, queries.shape[0], chunk):
        q = qt[:, lo : lo + chunk]
        sq = np.subtract.outer(q[0], rt[0])
        sq *= sq
        plane = None  # one scratch plane, reused for every further coordinate
        for j in range(1, rt.shape[0]):
            plane = np.subtract.outer(q[j], rt[j], out=plane)
            plane *= plane
            sq += plane
        del plane  # free the scratch plane while the caller reduces sq
        yield lo, sq


def min_sq(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared distance from each query row to its nearest reference."""
    if refs.shape[1] == 1:
        xs = np.sort(refs[:, 0])
        return _sorted_min_sq(xs, queries[:, 0], np.searchsorted(xs, queries[:, 0]))
    out = np.empty(queries.shape[0])
    for lo, sq in sq_blocks(queries, refs):
        out[lo : lo + sq.shape[0]] = sq.min(axis=1)
    return out


def min_sq_by_label(queries: np.ndarray, refs: np.ndarray, labels: np.ndarray, label_count: int) -> np.ndarray:
    """(label_count, m) table: row l holds each query's :func:`min_sq` to the
    references of label l, and stays +inf for a label with no references.

    1-D references run the sorted :func:`min_sq` once per label, with the
    queries searched in sorted order (consecutive searches then land close
    together, which is faster than a random order). Otherwise the references
    are grouped by label and each block of one scan is reduced per group. min
    is exact, so either route has the bits of :func:`min_sq` on each label's
    subset, and the column minimum those of :func:`min_sq` on all references.
    """
    out = np.full((label_count, queries.shape[0]), np.inf)
    counts = np.bincount(labels, minlength=label_count)
    present = np.flatnonzero(counts)
    if refs.shape[1] == 1:
        order = np.argsort(queries[:, 0])
        q = queries[order, 0]
        for lab in present:
            xs = np.sort(refs[labels == lab, 0])
            out[lab, order] = _sorted_min_sq(xs, q, np.searchsorted(xs, q))
        return out
    grouped = refs[np.argsort(labels, kind="stable")]
    starts = (np.cumsum(counts) - counts)[present]
    for lo, sq in sq_blocks(queries, grouped):
        out[present, lo : lo + sq.shape[0]] = np.minimum.reduceat(sq, starts, axis=1).T
    return out


def _sorted_min_sq(xs: np.ndarray, q: np.ndarray, at: np.ndarray) -> np.ndarray:
    """d * d to the nearer of the sorted values xs[at - 1] and xs[at] around
    each query's insertion point `at`, clipped to the ends."""
    dl = q - xs[np.maximum(at - 1, 0)]
    dr = q - xs[np.minimum(at, xs.size - 1)]
    return np.minimum(dl * dl, dr * dr)
