"""Exact squared distances from query rows to a reference set, in chunks.

Squared distances are computed by direct coordinate differences (no
norm-expansion shortcut), so that symmetric inputs tie exactly. Queries
are evaluated in row chunks: a chunk of r rows against n references of
dimension dim builds an (r, n, dim) float64 difference tensor, and r is the
largest count with r * n * dim <= CHUNK_ENTRIES, but at least 1. Every
result is independent of the chunk size.
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
    out = np.empty(queries.shape[0])
    for lo, sq in sq_blocks(queries, refs):
        out[lo : lo + sq.shape[0]] = sq.min(axis=1)
    return out
