"""Exact squared distances from query rows to a reference set, in chunks.

Squared distances are computed by direct coordinate differences (no
norm-expansion shortcut), so that symmetric inputs tie exactly. Queries
are evaluated in row chunks: a chunk of r rows against n references of
dimension dim builds an (r, n, dim) float64 difference tensor, and r is the
largest count with r * n * dim <= CHUNK_ENTRIES, but at least 1. Every
result is independent of the chunk size.

:func:`min_sq` answers 1-D references without a scan. Rounded subtraction
is monotone in the reference value x and squaring is monotone in |d|, so
along the sorted references the squared distance d * d, d = q - x, never
rises and then never falls. The nearest reference is therefore one of the
two sorted values around the query's insertion point, and d * d is the bit
pattern :func:`sq_blocks` yields for dim 1.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

CHUNK_ENTRIES = 2_000_000  # float64 entries of one chunk's difference tensor


def sq_blocks(queries: np.ndarray, refs: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, sq) with sq[i, j] the squared distance of queries[lo + i] to refs[j]."""
    chunk = max(1, CHUNK_ENTRIES // max(1, refs.shape[0] * refs.shape[1]))
    for lo in range(0, queries.shape[0], chunk):
        diff = queries[lo : lo + chunk, None, :] - refs[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # free the difference tensor while the caller reduces sq
        yield lo, sq


def min_sq(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared distance from each query row to its nearest reference."""
    if refs.shape[1] == 1:
        xs = np.sort(refs[:, 0])
        q = queries[:, 0]
        at = np.searchsorted(xs, q)
        dl = q - xs[np.maximum(at - 1, 0)]
        dr = q - xs[np.minimum(at, xs.size - 1)]
        return np.minimum(dl * dl, dr * dr)
    out = np.empty(queries.shape[0])
    for lo, sq in sq_blocks(queries, refs):
        out[lo : lo + sq.shape[0]] = sq.min(axis=1)
    return out
