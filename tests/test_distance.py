"""Tile-size independence of the k-NN full scan and of every caller of it.

Each test reruns a caller with the scan's tile budget, knn.CHUNK_ENTRIES,
forced down to 1-row tiles and to a few rows per tile (leaving a ragged last
tile), and requires exactly the output of the default budget. The k-NN
search is also compared with a full stable-sort oracle on tie-heavy integer
lattices and on 1-D floats a few ulps apart, and so are the votes: the 1-D
run votes there and on blocks of copies that the run splits at either end,
and the full scan's threshold votes on lattices of dim 1-3, on rows where
every point ties and on groups so far apart that squared distances overflow
to +inf; and, where float64 squared distances differ, on float32 keys that
overflow to +inf, underflow to 0 or fall within one float32 ulp, on rows
that span several sort blocks with a tie across a block edge, and with k + 1
> 512. The nearest-reference routes (the sorted 1-D `min_sq`, the strip
search behind `min_sq`, `min_sq_by_label` and `min_pair_sq` on images of dim
2-4, the k = 1 search, the k = 1 vote behind the induced labeler, on the
sorted run and on the full scan, and the certify unify scan) are compared
bit for bit with full scans on the same kinds of lattices, on floats whose
squares underflow, on far and collinear clouds and on copies. The bits of
the `pair_sq` table, of its one-row case, of the paired distances of
`pair_sq` and of the margins built on them are checked against a
coordinate-order plane sum for C-ordered, Fortran-ordered and strided
inputs. Coordinate planes filled as the full scan fills them, any column
subset added in any order by `plane_sum`, are checked against `pair_sq`, and
each row of a family vote against the stable-sort vote of its map alone, on
families that mix coordinate maps with overlapping coordinates, the
identity, no map and linear maps, with 1-D and wider images.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirmnn import distance, knn
from sirmnn.core import LabeledSet, SeedSpec, UnlabeledSet
from sirmnn.estimators import beta_estimate, source_margin, target_margin
from sirmnn.featuremaps import apply_batch, cor_family, identity_map, linear_map
from sirmnn.knn import KnnClassifier, _columns, _neighbor_indices, _sorted_runs, family_votes, predict_batch
from sirmnn.scenarios import (
    CertBudget,
    Scene,
    SceneComponent,
    ShiftProblem,
    _min_cross_label_distance,
    _sample_points,
    _worst_unify_violation,
    bayes_labels_batch,
    certify,
    figure1_panel,
    induced_source_labeler,
    perturb_source,
)

from test_knn import _vote

# 7 rows per chunk against 2000 two-dimensional references.
RAGGED = 7 * 2000 * 2
SMALL_BUDGETS = [1, RAGGED]

N, M, K = 2000, 500, 69


@pytest.fixture(scope="module")
def lattice():
    """Integer points on a 12x12 grid: ~14 copies of each, so distances tie in bulk."""
    rng = np.random.default_rng(0)
    train = rng.integers(0, 12, size=(N, 2)).astype(np.float64)
    queries = rng.integers(0, 12, size=(M, 2)).astype(np.float64)
    return train, queries


def _assert_chunk_independent(monkeypatch, fn):
    want = fn()
    for budget in SMALL_BUDGETS:
        monkeypatch.setattr(knn, "CHUNK_ENTRIES", budget)
        assert fn() == want, f"budget {budget}"
    return want


def test_blocks_cover_every_row_with_a_ragged_tail(lattice, monkeypatch):
    """A vote on the 2-D lattice in 7-row tiles, the last one ragged, is the
    stable-sort vote and the default-budget vote."""
    train, queries = lattice
    exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(_full_sq(queries, train), exact)
    assert np.array_equal(distance.min_sq(queries, train), exact.min(axis=1))
    labels = np.random.default_rng(1).integers(0, 3, size=N)
    clf = KnnClassifier(LabeledSet(train, labels, 3), K)
    oracle = _vote(labels[np.argsort(exact, axis=1, kind="stable")[:, :K]], 3)
    default = predict_batch(clf, UnlabeledSet(queries))
    monkeypatch.setattr(knn, "CHUNK_ENTRIES", RAGGED)
    assert RAGGED // (N * 2) == 7 and M % 7 != 0
    ragged = predict_batch(clf, UnlabeledSet(queries))
    assert np.array_equal(ragged, oracle) and np.array_equal(ragged, default)


# 2_000_000 holds the whole lattice in one chunk; the default budget splits it.
@pytest.mark.parametrize("budget", [*SMALL_BUDGETS, 2_000_000, knn.CHUNK_ENTRIES])
def test_neighbor_indices_match_stable_sort_oracle(lattice, monkeypatch, budget):
    train, queries = lattice
    exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    ranked = np.sort(exact, axis=1)
    # k sits inside a run of equal distances for most queries.
    assert np.mean(ranked[:, K - 1] == ranked[:, K]) > 0.5
    oracle = np.argsort(exact, axis=1, kind="stable")[:, :K]
    monkeypatch.setattr(knn, "CHUNK_ENTRIES", budget)
    assert np.array_equal(_neighbor_indices(train, queries, K), oracle)


# Centres of the 1-D float cases: at 0 and 2**-488 the squares of differences
# of a few ulps underflow, so distinct differences square to the same double;
# at 1 and 3 they are exact.
FLOAT_CENTRES = [0.0, 2.0**-488, 1.0, 3.0]


@st.composite
def lattice_case(draw):
    """Points with many duplicates and ties, and k placed on a tie run of query 0.

    Integer lattices of dim 1-3, or 1-D floats a few ulps apart around a
    centre (optionally with half the points mirrored across query 0), with
    queries reaching past the training values so that runs clip at both
    ends. Returns (train, queries, k, rows per forced chunk). m leaves a
    ragged last chunk under the forced budget.
    """
    n = draw(st.one_of(st.integers(1, 60), st.integers(1000, 3000)))
    kind = draw(st.sampled_from(["lattice", "ulps", "mirror"]))
    rows = draw(st.integers(2, 5))
    m = rows * draw(st.integers(0, 8)) + draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        dim, side = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        train = rng.integers(0, side, size=(n, dim)).astype(np.float64)
        queries = rng.integers(0, side, size=(m, dim)).astype(np.float64)
    else:
        # Integer steps of one ulp of the centre: every value and difference is exact.
        centre = draw(st.sampled_from(FLOAT_CENTRES))
        steps = draw(st.integers(1, 40))
        train_steps = rng.integers(-steps, steps + 1, size=(n, 1))
        query_steps = rng.integers(-steps - 3, steps + 4, size=(m, 1))
        if kind == "mirror":
            half = rng.random(n) < 0.5
            train_steps[half] = 2 * query_steps[0] - train_steps[half]
        ulp = np.spacing(centre)
        train, queries = centre + ulp * train_steps, centre + ulp * query_steps
    ranked = np.sort(((queries[0] - train) ** 2).sum(axis=1))
    # The run of equal distances that holds rank position pos: ranked[start:end].
    pos = rng.integers(n)
    start = np.searchsorted(ranked, ranked[pos], side="left")
    end = np.searchsorted(ranked, ranked[pos], side="right")
    place = draw(st.sampled_from(["start", "inside", "end", "one", "all", "near_all"]))
    if place == "inside":
        k = draw(st.integers(start + 1, end))
    elif place == "near_all":
        k = max(1, n - draw(st.integers(1, 3)))
    else:
        k = {"start": start + 1, "end": end, "one": 1, "all": n}[place]
    return train, queries, int(k), rows


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=lattice_case(), forced=st.booleans())
def test_neighbor_indices_match_stable_sort_oracle_on_tie_heavy_lattices(case, forced):
    train, queries, k, rows = case
    exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    oracle = np.argsort(exact, axis=1, kind="stable")[:, :k]
    budget = rows * train.size if forced else knn.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        assert np.array_equal(_neighbor_indices(train, queries, k), oracle)


@st.composite
def copies_case(draw):
    """1-D blocks of copies of 0..B-1 in shuffled index order, queries on a
    value or a quarter or a half off one, and k inside or at the end of the
    tie run that holds a random rank of query 0, so that runs split blocks
    at their left or right end. Returns (train, queries, k, None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.integers(1, 12))
    train = np.repeat(np.arange(blocks, dtype=np.float64), rng.integers(1, 30, size=blocks))
    rng.shuffle(train)
    m = draw(st.integers(1, 40))
    queries = rng.integers(-2, blocks + 2, size=m) + rng.choice([0.0, 0.25, 0.5, 0.75], size=m)
    ranked = np.sort((queries[0] - train) ** 2)
    pos = rng.integers(train.size)
    start = np.searchsorted(ranked, ranked[pos], side="left")
    k = draw(st.integers(int(start) + 1, int(np.searchsorted(ranked, ranked[pos], side="right"))))
    return train[:, None], queries[:, None], k, None


@st.composite
def overflow_case(draw):
    """Lattice points of dim 1-3 in three groups 2**600 apart along
    coordinate 0: squared distances between groups overflow to +inf and tie
    there, and k is anywhere in [1, n], so the k-th is often +inf. Returns
    (train, queries, k, rows per forced chunk)."""
    n = draw(st.integers(1, 80))
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    m = rows * draw(st.integers(0, 4)) + draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    queries = rng.integers(0, 3, size=(m, dim)).astype(np.float64)
    train[:, 0] += 2.0**600 * rng.integers(-1, 2, size=n)
    queries[:, 0] += 2.0**600 * rng.integers(-1, 2, size=m)
    return train, queries, draw(st.integers(1, n)), rows


@st.composite
def float32_key_case(draw):
    """Inputs on which the full scan's float32 keys tie where the float64
    squared distances do not, or whose rows span several sort blocks.

    Points of dim 1-3, of one kind:
    - "overflow": lattice points, about half of them shifted along coordinate
      0 by a continuous multiple of 10**e (e in 20..150), so squared
      distances across the shift lie in about 1e39..1e300: +inf as float32
      keys, distinct in float64;
    - "underflow": lattice points scaled by 10**-e (e in 23..150), so
      squared distances lie in about 1e-300..1e-44: 0 or subnormal keys;
    - "ulp": lattice points with training coordinates moved by a few 2**-30,
      so squared distances differ in float64 but within one float32 ulp;
    - "edge": Gaussian points, n in 513..1500, with two copies of one point
      (exact, or 2**-40 apart) at either side of a sort-block edge and k at
      the first copy's rank for query 0;
    - "wide_k": Gaussian points, n in 513..1500, with k + 1 > 512.
    Returns (train, queries, k, rows per forced chunk).
    """
    kind = draw(st.sampled_from(["overflow", "underflow", "ulp", "edge", "wide_k"]))
    big = kind in ("edge", "wide_k")
    n = draw(st.integers(513, 1500) if big else st.one_of(st.integers(1, 60), st.integers(513, 1500)))
    dim, rows = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    m = rows * draw(st.integers(0, 8)) + draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if big:
        train, queries = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
    else:
        side = draw(st.integers(1, 6))
        train = rng.integers(0, side, size=(n, dim)).astype(np.float64)
        queries = rng.integers(0, side, size=(m, dim)).astype(np.float64)
    if kind == "overflow":
        scale = 10.0 ** draw(st.integers(20, 150))
        train[:, 0] += scale * rng.uniform(-3, 3, size=n) * (rng.random(n) < 0.5)
        queries[:, 0] += scale * rng.uniform(-3, 3, size=m) * (rng.random(m) < 0.5)
    elif kind == "underflow":
        scale = 10.0 ** -draw(st.integers(23, 150))
        train, queries = train * scale, queries * scale
    elif kind == "ulp":
        train += 2.0**-30 * rng.integers(-3, 4, size=train.shape)
    k = draw(st.integers(1, n))
    if kind == "wide_k":
        k = draw(st.integers(512, n))
    elif kind == "edge":
        blocks = -(-(n + 1) // knn.BLOCK)
        edge = min(-(-(n + 1) // blocks) * draw(st.integers(1, blocks - 1)), n - 1)
        train[edge - 1] = train[edge] = train[rng.integers(n)]
        if draw(st.booleans()):
            train[edge, 0] *= 1 + 2.0**-40
        sq = ((queries[0] - train) ** 2).sum(axis=1)
        k = int(np.searchsorted(np.sort(sq), min(sq[edge - 1], sq[edge]))) + 1
    return train, queries, k, rows


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    case=st.one_of(lattice_case(), copies_case(), overflow_case(), float32_key_case()),
    label_count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    forced=st.booleans(),
)
# Every one of n points ties with every query (k = n, lattice side 1), in dims 1-3.
@example(case=(np.zeros((40, 1)), np.zeros((7, 1)), 40, 3), label_count=3, seed=0, forced=True)
@example(case=(np.zeros((40, 2)), np.zeros((7, 2)), 40, 3), label_count=4, seed=1, forced=False)
@example(case=(np.ones((1000, 3)), np.ones((9, 3)), 1000, 4), label_count=2, seed=2, forced=True)
def test_run_vote_matches_stable_sort_oracle(case, label_count, seed, forced):
    """predict_batch votes the k nearest of a full stable sort on images of
    dim 1-3, under the default and a forced chunk budget, with labels drawn
    from a random subset (so some labels have no training point), and on 1-D
    images every run it does not rescan holds exactly those neighbors and no
    row reaches the full scan."""
    train, queries, k, rows = case
    rng = np.random.default_rng(seed)
    used = rng.choice(label_count, size=rng.integers(1, label_count + 1), replace=False)
    labels = rng.choice(used, size=train.shape[0])
    budget = (rows or 2) * train.size if forced else knn.CHUNK_ENTRIES
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
        oracle = np.argsort(_plane_sum(queries, train), axis=1, kind="stable")[:, :k]
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        scans, threshold_votes = [], knn._threshold_votes
        mp.setattr(knn, "_threshold_votes", lambda *args: scans.append(args) or threshold_votes(*args))
        clf = KnnClassifier(LabeledSet(train, labels, label_count), k)
        assert np.array_equal(predict_batch(clf, UnlabeledSet(queries)), _vote(labels[oracle], label_count))
        if train.shape[1] > 1:
            return
        assert scans == []
        u, start, rescan = _sorted_runs(train[:, 0], queries[:, 0], k)
    for i in np.flatnonzero(~rescan):
        assert sorted(u[start[i] : start[i] + k]) == sorted(oracle[i])


@st.composite
def family_case(draw):
    """Lattice points of dim D = 3-4 and a list of maps on them, with k anywhere in [1, n].

    The maps are drawn with repeats from cor_family(D, 1-3) (overlapping
    coordinates, 1-D and multi-column images), the identity, no map, and
    linear maps with 1-3 image columns and entries in {-1, -1/2, 0, 1/2, 1}.
    The points may form two groups 2**27 + 8 apart along coordinate 0, so
    squared distances lie where doubles are 4 apart and their bits depend on
    the order of the plane sum, or groups 2**600 apart, so squared distances
    overflow to +inf and tie there. On top of that, the float32 keys of the
    full scan may tie where float64 squared distances do not: half the
    training points shifted along coordinate 0 by a continuous multiple of
    10**e (e in 20..150), so keys overflow to +inf; all points scaled by
    10**-e (e in 23..150), so keys underflow to 0 or subnormals; or training
    coordinates moved by a few 2**-30, within one float32 ulp. n reaches
    1500, past several sort blocks. Returns (train, queries, maps, k, rows
    per forced tile); m leaves a ragged last tile.
    """
    dim, n = draw(st.integers(3, 4)), draw(st.one_of(st.integers(1, 60), st.integers(300, 1500)))
    rows = draw(st.integers(2, 5))
    m = rows * draw(st.integers(0, 6)) + draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(1, 4))
    train = rng.integers(0, side, size=(n, dim)).astype(np.float64)
    queries = rng.integers(0, side, size=(m, dim)).astype(np.float64)
    apart = draw(st.sampled_from([0.0, 2.0**27 + 8, 2.0**600]))
    train[:, 0] += apart * rng.integers(-1, 2, size=n)
    queries[:, 0] += apart * rng.integers(-1, 2, size=m)
    keys = draw(st.sampled_from(["exact", "overflow", "underflow", "ulp"]))
    if keys == "overflow":
        scale = 10.0 ** draw(st.integers(20, 150))
        train[:, 0] += scale * rng.uniform(-1, 1, size=n) * (rng.random(n) < 0.5)
    elif keys == "underflow":
        scale = 10.0 ** -draw(st.integers(23, 150))
        train, queries = train * scale, queries * scale
    elif keys == "ulp":
        train += 2.0**-30 * rng.integers(-3, 4, size=train.shape)
    pool = [fm for j in (1, 2, 3) for fm in cor_family(dim, j).maps] + [identity_map(dim), None]
    pool += [linear_map(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(dim, j))) for j in (1, 2, 3)]
    maps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return train, queries, maps, draw(st.integers(1, n)), rows


def _scanned_columns(maps, dim):
    """Distinct image columns the full scan of a family vote reads: those of
    its maps with images of dim >= 2, coordinates shared."""
    coords, own = set(), 0
    for fmap in maps:
        if fmap is not None and fmap.kind == "linear":
            own += fmap.output_dim if fmap.output_dim > 1 else 0
        elif fmap is None or fmap.output_dim > 1:
            coords |= set(range(dim) if fmap is None or fmap.coords is None else fmap.coords)
    return len(coords) + own


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    case=family_case(),
    label_count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    tiles=st.sampled_from(["one_row", "ragged", "default"]),
)
# Every one of n points ties with every query (k = n): 1-D, 2-D and 3-D images, one call.
@example(
    case=(np.zeros((40, 3)), np.zeros((7, 3)), [*cor_family(3, 2).maps, *cor_family(3, 1).maps, None], 40, 3),
    label_count=3, seed=0, tiles="ragged",
)
def test_family_votes_match_per_map_stable_sort_oracle(case, label_count, seed, tiles):
    """Row f of family_votes is, bit for bit, the stable-sort vote of map f on
    its own, and predict_batch through map f; with 1-row tiles, tiles of a
    few rows and a ragged last one, or the default budget, and labels drawn
    from a random subset, so some labels have no training point."""
    train, queries, maps, k, rows = case
    rng = np.random.default_rng(seed)
    used = rng.choice(label_count, size=rng.integers(1, label_count + 1), replace=False)
    train_set = LabeledSet(train, rng.choice(used, size=train.shape[0]), label_count)
    budget = {
        "one_row": 1,
        "ragged": rows * train.shape[0] * max(1, _scanned_columns(maps, train.shape[1])),
        "default": knn.CHUNK_ENTRIES,
    }[tiles]
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        got = family_votes(train_set, k, maps, UnlabeledSet(queries))
        assert got.shape == (len(maps), queries.shape[0])
        train_t, query_t, cols = _columns(maps, train, queries)
        for f, fmap in enumerate(maps):
            zt, zq = (train, queries) if fmap is None else (apply_batch(fmap, train), apply_batch(fmap, queries))
            # The shared rows of map f, in its order, are its image's columns.
            assert train_t[cols[f]].T.tobytes() == np.ascontiguousarray(zt).tobytes(), f
            assert query_t[cols[f]].T.tobytes() == np.ascontiguousarray(zq).tobytes(), f
            oracle = np.argsort(_plane_sum(zq, zt), axis=1, kind="stable")[:, :k]
            assert np.array_equal(got[f], _vote(train_set.labels[oracle], label_count)), f
            assert np.array_equal(got[f], predict_batch(KnnClassifier(train_set, k, fmap), UnlabeledSet(queries))), f


def _plane_sum(queries, refs):
    """Squared distances summed one coordinate plane at a time, in coordinate order."""
    sq = (queries[:, None, 0] - refs[None, :, 0]) ** 2
    for j in range(1, queries.shape[1]):
        sq = sq + (queries[:, None, j] - refs[None, :, j]) ** 2
    return sq


def _layouts(points):
    """C-ordered, Fortran-ordered and strided-view copies of the same points."""
    strided = np.zeros((2 * points.shape[0], 3 * points.shape[1]))[::2, ::3]
    strided[...] = points
    return {"C": np.ascontiguousarray(points), "F": np.asfortranarray(points), "strided": strided}


def _paired_plane_sum(a, b):
    """Squared distance of row i of a to row i of b, one coordinate-order plane sum per pair."""
    return np.array([_plane_sum(a[i : i + 1], b[i : i + 1])[0, 0] for i in range(a.shape[0])])


@pytest.mark.parametrize("dim", range(1, 9))
def test_kernel_bits_do_not_depend_on_layout(dim):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        refs, queries = rng.standard_normal((300, dim)), rng.standard_normal((120, dim))
        want = _plane_sum(queries, refs)
        beta = float(np.sqrt(want.min(axis=1).max()))
        nearest = np.argsort(want, axis=1, kind="stable")[:, :5]
        paired = _paired_plane_sum(queries, refs[:120])
        # source_margin pairs query i with query 60 + i, and reports the nearest
        # pair the classifier splits; target_margin of one target point and one
        # source point is the distance of that pair.
        clf = KnnClassifier(LabeledSet(refs, rng.integers(0, 2, 300), 2), 1)
        preds = predict_batch(clf, UnlabeledSet(queries))
        halves = np.sqrt(_paired_plane_sum(queries[:60], queries[60:]))
        s_margin = repr(float(halves[preds[:60] != preds[60:]].min()))
        t_margins = [repr(float(d)) for d in np.sqrt(paired[:20])]
        for (rl, r), (ql, q) in itertools.product(_layouts(refs).items(), _layouts(queries).items()):
            assert distance.pair_sq(q[:, None], r[None]).tobytes() == want.tobytes(), (rl, ql)
            for i in (0, 119):
                assert distance.pair_sq(q[i], r).tobytes() == want[i].tobytes(), (rl, ql, i)
            assert distance.min_sq(q, r).tobytes() == want.min(axis=1).tobytes(), (rl, ql)
            assert distance.pair_sq(q, r[:120]).tobytes() == paired.tobytes(), (rl, ql)
            assert np.array_equal(_neighbor_indices(r, q, 5), nearest), (rl, ql)
            assert repr(beta_estimate(None, UnlabeledSet(r), UnlabeledSet(q))) == repr(beta), (rl, ql)
            assert repr(source_margin(clf, LabeledSet(q, np.zeros(120, dtype=np.int64), 1))) == s_margin, ql
            for i in range(20):
                s_t = LabeledSet(r[i : i + 1], [0], 1)
                assert repr(target_margin(None, s_t, UnlabeledSet(q[i : i + 1]))) == t_margins[i], (rl, ql, i)


def test_beta_estimate(lattice, monkeypatch):
    train, queries = lattice
    _assert_chunk_independent(
        monkeypatch, lambda: repr(beta_estimate(None, UnlabeledSet(train), UnlabeledSet(queries)))
    )


def test_certify_with_unify_scan(monkeypatch):
    prob = figure1_panel("c")
    report = _assert_chunk_independent(monkeypatch, lambda: json.dumps(certify(prob, 0, seed=SeedSpec(9)).to_json()))
    # Map 0 passes preserve on panel c, so the unify pair scan runs and fails.
    assert json.loads(report)["worst_unify_violation"] is not None


def test_induced_source_labeler(monkeypatch):
    prob = figure1_panel("c")
    probe, _ = _sample_points(prob.target, 500, SeedSpec(4))
    labeler = induced_source_labeler(prob, 0, 1500, SeedSpec(3))
    got = _assert_chunk_independent(monkeypatch, lambda: labeler(probe).tolist())
    # The labeler's support sample, labeled by the first nearest image.
    pts, _ = _sample_points(prob.source, 1500, SeedSpec(3).substream(21))
    fmap = prob.family[0]
    sq = _full_sq(apply_batch(fmap, probe), apply_batch(fmap, pts))
    assert got == bayes_labels_batch(prob.source, pts)[sq.argmin(axis=1)].tolist()


def test_perturb_source(monkeypatch):
    prob = figure1_panel("b")

    def run():
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(18))
        return json.dumps([p1.to_json(), p2.to_json()], sort_keys=True)

    _assert_chunk_independent(monkeypatch, run)


@st.composite
def nearest_case(draw, dims=(1,), kinds=("lattice", "ulps", "mirror", "far")):
    """References and queries of one dimension from `dims`, heavy in ties.

    Integer lattices, or floats a few ulps apart around a centre (optionally
    with half the references mirrored across query 0), with queries past
    both ends of the references and sometimes a single reference. The "far"
    kind puts two integer lattices 2**27 + 8 apart along the first axis:
    squared distances lie in [2**54, 2**55), where doubles are 4 apart, and
    in 2-D neighbouring ones often share one square root. Returns (refs,
    queries, rows per forced chunk).
    """
    dim = draw(st.sampled_from(dims))
    n = draw(st.one_of(st.just(1), st.integers(1, 60), st.integers(1000, 3000)))
    rows = draw(st.integers(2, 5))
    m = rows * draw(st.integers(0, 8)) + draw(st.integers(1, rows - 1))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        side = draw(st.integers(1, 6))
        refs = rng.integers(0, side, size=(n, dim)).astype(np.float64)
        queries = rng.integers(-2, side + 2, size=(m, dim)).astype(np.float64)
    elif kind == "far":
        refs = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
        refs[:, 0] += 2.0**27 + 8
        queries = rng.integers(-3, 4, size=(m, dim)).astype(np.float64)
    else:
        centre = draw(st.sampled_from(FLOAT_CENTRES))
        steps = draw(st.integers(1, 40))
        ref_steps = rng.integers(-steps, steps + 1, size=(n, dim))
        query_steps = rng.integers(-steps - 3, steps + 4, size=(m, dim))
        if kind == "mirror":
            half = rng.random(n) < 0.5
            ref_steps[half] = 2 * query_steps[0] - ref_steps[half]
        ulp = np.spacing(centre)
        refs, queries = centre + ulp * ref_steps, centre + ulp * query_steps
    return refs, queries, rows


def _full_sq(queries, refs):
    return distance.pair_sq(queries[:, None], refs[None])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=nearest_case(dims=(1, 2, 3, 4)), data=st.data())
def test_shared_plane_sums_match_pair_sq(case, data):
    """Coordinate planes filled as the full scan fills them, any subset of
    columns added in any order by plane_sum (into a fresh array or into
    `out`), have the bits of the pair_sq table and of paired pair_sq on the
    points' columns in that order."""
    refs, queries, _ = case
    (m, dim), n = queries.shape, refs.shape[0]
    cols = data.draw(st.permutations(range(dim)))[: data.draw(st.integers(1, dim))]
    planes = np.empty((dim, m, n))
    np.subtract(np.ascontiguousarray(queries.T)[:, :, None], np.ascontiguousarray(refs.T)[:, None, :], out=planes)
    planes *= planes
    got = distance.plane_sum(planes, cols)
    assert got.tobytes() == distance.plane_sum(planes, cols, out=np.empty((m, n))).tobytes()
    assert got.tobytes() == _full_sq(queries[:, cols], refs[:, cols]).tobytes()
    pairs = distance.pair_sq(np.repeat(queries[:, cols], n, axis=0), np.tile(refs[:, cols], (m, 1)))
    assert got.tobytes() == pairs.reshape(m, n).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=nearest_case())
def test_min_sq_1d_matches_full_scan_on_ulp_lattices(case):
    refs, queries, _ = case
    got = distance.min_sq(queries, refs)
    assert got.tobytes() == _full_sq(queries, refs).min(axis=1).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=nearest_case(dims=(1, 2)), forced=st.booleans())
def test_k1_search_matches_first_argmin(case, forced):
    refs, queries, rows = case
    sq = _full_sq(queries, refs)
    want = np.argsort(sq, axis=1, kind="stable")[:, 0]
    # A zero last coordinate keeps every squared distance's bits and sends
    # 1-D rows through the full scan's vote instead of the sorted run. Labels
    # cycle, so most tied references differ in label.
    pad = [np.c_[p, np.zeros(p.shape[0])] for p in (refs, queries)]
    labels = np.arange(refs.shape[0]) % 5
    budget = rows * refs.size if forced else knn.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        assert np.array_equal(_neighbor_indices(refs, queries, 1)[:, 0], want)
        for r, q in ((refs, queries), pad):
            clf = KnnClassifier(LabeledSet(r, labels, 5), 1)
            assert np.array_equal(predict_batch(clf, UnlabeledSet(q)), labels[want])


@st.composite
def labeled_case(draw):
    """A nearest_case of dim 1 or 2 with reference labels drawn from a random
    non-empty subset of the table's labels, so some labels have no references."""
    refs, queries, rows = draw(st.one_of(nearest_case(dims=(1, 2)), nearest_case(dims=(2,), kinds=("far",))))
    label_count = draw(st.integers(1, 4))
    used = draw(st.lists(st.integers(0, label_count - 1), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return refs, queries, rng.choice(used, size=refs.shape[0]), label_count, rows


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=labeled_case(), forced=st.booleans())
def test_min_sq_by_label_matches_per_label_full_scan(case, forced):
    refs, queries, labels, label_count, rows = case
    full = _plane_sum(queries, refs)
    want = np.full((label_count, queries.shape[0]), np.inf)
    for lab in range(label_count):
        if np.any(labels == lab):
            want[lab] = full[:, labels == lab].min(axis=1)
    budget = rows * refs.size if forced else knn.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        got = distance.min_sq_by_label(queries, refs, labels, label_count)
    assert got.tobytes() == want.tobytes()
    assert got.min(axis=0).tobytes() == full.min(axis=1).tobytes()


def _wide_problem():
    """A D=8 two-ball shift whose ground-truth map, coordinates (2, 5), has 2-D images."""

    def scene(shift):
        centers = [[shift, shift, 0.0, shift, shift, y, shift, shift] for y in (1.0, -1.0)]
        return Scene(8, tuple(SceneComponent(c, 0.4, lab, 0.5, 0.05) for lab, c in enumerate(centers)), 2)

    return ShiftProblem(scene(0.0), scene(6.0), cor_family(8, 2), ground_truth=(15,))


# The D=8 ground truth (2-D images) and panel c's map 0 (1-D) pass preserve,
# so certify reads beta_hat from the per-label table; D=8 map 0 and panel a's
# map 0 fail it, so certify takes the plain nearest-source minimum.
@pytest.mark.parametrize(
    "problem,map_index,preserves", [("wide", 15, "pass"), ("wide", 0, "fail"), ("c", 0, "pass"), ("a", 0, "fail")]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certify_beta_hat_equals_beta_estimate(problem, map_index, preserves, seed):
    prob = _wide_problem() if problem == "wide" else figure1_panel(problem)
    budget = CertBudget(1500, 1500)
    report = certify(prob, map_index, budget, SeedSpec(seed))
    src, _ = _sample_points(prob.source, budget.n_source, SeedSpec(seed).substream(11))
    tgt, _ = _sample_points(prob.target, budget.n_target, SeedSpec(seed).substream(12))
    want = beta_estimate(prob.family[map_index], UnlabeledSet(src), UnlabeledSet(tgt))
    assert repr(report.beta_hat) == repr(want)
    assert report.preserves == preserves


def _unify_pair_scan(zt, tgt_bayes, zs, src_bayes, limit):
    """The certify unify scan before the per-target route: every close pair."""
    sq = _full_sq(zt, zs)
    ti, si = np.nonzero(sq < limit * limit)
    disagree = tgt_bayes[ti] != src_bayes[si]
    if not np.any(disagree):
        return None
    bad = np.nonzero(disagree)[0]
    d = np.sqrt(sq[ti[bad], si[bad]])
    w = int(bad[d.argmin()])
    return float(d.min()), int(si[w]), int(ti[w])


@st.composite
def unify_case(draw):
    """A nearest_case with Bayes labels and a limit at or just above a pair
    distance, at the least one, or out of reach of every pair."""
    zs, zt, rows = draw(st.one_of(nearest_case(dims=(1, 2)), nearest_case(dims=(2,), kinds=("far",))))
    labels = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src_bayes = rng.integers(0, labels, size=zs.shape[0])
    tgt_bayes = rng.integers(0, labels, size=zt.shape[0])
    pick = draw(st.sampled_from(["pair", "above_pair", "least", "inf", "zero"]))
    if pick in ("pair", "above_pair"):
        d = math.sqrt(_full_sq(zt, zs)[rng.integers(zt.shape[0]), rng.integers(zs.shape[0])])
        limit = d if pick == "pair" else math.nextafter(d, math.inf)
    elif pick == "least":
        limit = math.sqrt(_full_sq(zt, zs).min())
    else:
        limit = {"inf": math.inf, "zero": 0.0}[pick]
    return zt, tgt_bayes, zs, src_bayes, limit, rows


# x * x rounds to P, u * u + v * v rounds to the double below P, and both
# square roots round to x: from the origin, (x, 0) and (u, v) lie at one d.
X, U, V = 1.0348529815673828, 1.0348520278930664, 0.0014049286493760958


def _shared_root_case(zt, zs, limit):
    """Targets of label 0 and sources of label 1, for an explicit example."""
    sq = _full_sq(np.zeros((1, 2)), np.asarray([[X, 0.0], [U, V]]))[0]
    assert sq[1] == np.nextafter(sq[0], 0) and np.sqrt(sq[0]) == np.sqrt(sq[1]) == X
    zt, zs = np.asarray(zt), np.asarray(zs)
    return zt, np.zeros(len(zt), dtype=np.int64), zs, np.ones(len(zs), dtype=np.int64), limit, 2


def test_certify_unify_with_a_target_label_the_source_lacks():
    """The target's label 2 has no source: its table row stays +inf, and the
    unify verdict is the pair scan's."""
    prob = figure1_panel("c")
    comps = (SceneComponent((-1.0, 1.0), 0.4, 2, 0.5), SceneComponent((1.0, -1.0), 0.4, 0, 0.5))
    prob = ShiftProblem(prob.source, Scene(2, comps, 3), prob.family)
    budget, seed = CertBudget(500, 500), SeedSpec(5)
    report = certify(prob, 0, budget, seed)
    src, _ = _sample_points(prob.source, budget.n_source, seed.substream(11))
    tgt, _ = _sample_points(prob.target, budget.n_target, seed.substream(12))
    fmap = prob.family[0]
    want = _unify_pair_scan(
        apply_batch(fmap, tgt), bayes_labels_batch(prob.target, tgt),
        apply_batch(fmap, src), bayes_labels_batch(prob.source, src), report.rho_hat / 2,
    )
    assert report.preserves == "pass" and want is not None
    assert report.worst_unify_violation == want


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=unify_case(), forced=st.booleans())
# Both sources at one d: the first wins, though its square is the larger.
@example(case=_shared_root_case([[0.0, 0.0]], [[X, 0.0], [U, V]], 2.0), forced=False)
# limit * limit rounds to P, so only the source below it is close.
@example(case=_shared_root_case([[0.0, 0.0]], [[X, 0.0], [U, V]], X), forced=False)
# Both targets at one d: the first wins, though its square is the larger.
@example(case=_shared_root_case([[0.0, 0.0], [X - U, -V]], [[X, 0.0]], 2.0), forced=False)
def test_worst_unify_violation_matches_pair_scan(case, forced):
    zt, tgt_bayes, zs, src_bayes, limit, rows = case
    want = _unify_pair_scan(zt, tgt_bayes, zs, src_bayes, limit)
    budget = rows * zs.size if forced else knn.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "CHUNK_ENTRIES", budget)
        near = distance.min_sq_by_label(zt, zs, src_bayes, 1 + max(src_bayes.max(), tgt_bayes.max()))
        assert repr(_worst_unify_violation(near, zt, tgt_bayes, zs, src_bayes, limit)) == repr(want)



@st.composite
def strip_case(draw):
    """References and queries of dim 2-4 for the strip search, heavy in ties.

    Integer lattices; floats a few ulps apart in every coordinate around a
    centre (at 0 and 2**-488 distinct differences square to one double);
    "far" lattices 2**27 + 8 apart along coordinate 0; lattices with every
    reference on one coordinate-0 value; copies of a few Gaussian points,
    queried on and off them; and two Gaussian clouds with queries in both,
    so that one cloud's queries are far from the other's references. n and
    m may be 1. Returns (refs, queries).
    """
    dim = draw(st.integers(2, 4))
    n = draw(st.one_of(st.just(1), st.integers(1, 60), st.integers(1000, 3000)))
    m = draw(st.one_of(st.just(1), st.integers(1, 50)))
    kind = draw(st.sampled_from(["lattice", "ulps", "far", "column", "copies", "clouds"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("lattice", "column"):
        side = draw(st.integers(1, 6))
        refs = rng.integers(0, side, size=(n, dim)).astype(np.float64)
        queries = rng.integers(-2, side + 2, size=(m, dim)).astype(np.float64)
        if kind == "column":
            refs[:, 0] = draw(st.integers(-1, side))
    elif kind == "ulps":
        centre = draw(st.sampled_from(FLOAT_CENTRES))
        steps = draw(st.integers(1, 40))
        ulp = np.spacing(centre)
        refs = centre + ulp * rng.integers(-steps, steps + 1, size=(n, dim))
        queries = centre + ulp * rng.integers(-steps - 3, steps + 4, size=(m, dim))
    elif kind == "far":
        refs = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
        refs[:, 0] += 2.0**27 + 8
        queries = rng.integers(-3, 4, size=(m, dim)).astype(np.float64)
    elif kind == "copies":
        pool = rng.standard_normal((draw(st.integers(1, 8)), dim))
        refs = pool[rng.integers(len(pool), size=n)]
        queries = pool[rng.integers(len(pool), size=m)] + rng.choice([0.0, 0.5], size=(m, 1))
    else:
        refs = 0.4 * rng.standard_normal((n, dim))
        refs[:, 1] -= 1.0
        queries = 0.4 * rng.standard_normal((m, dim))
        queries[:, 1] += rng.choice([-1.0, 1.0], size=m)
    return refs, queries


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=strip_case())
def test_strip_search_min_sq_matches_full_scan(case):
    refs, queries = case
    assert distance.min_sq(queries, refs).tobytes() == _full_sq(queries, refs).min(axis=1).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=strip_case())
def test_strip_search_min_pair_sq_matches_full_scan(case):
    refs, queries = case
    assert repr(distance.min_pair_sq(queries, refs)) == repr(float(_full_sq(queries, refs).min()))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=strip_case(), label_count=st.integers(1, 4), data=st.data())
def test_strip_search_min_sq_by_label_matches_full_scan(case, label_count, data):
    refs, queries = case
    used = data.draw(st.lists(st.integers(0, label_count - 1), min_size=1, unique=True))
    labels = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).choice(used, size=refs.shape[0])
    full = _full_sq(queries, refs)
    want = np.full((label_count, queries.shape[0]), np.inf)
    for lab in used:
        if np.any(labels == lab):
            want[lab] = full[:, labels == lab].min(axis=1)
    assert distance.min_sq_by_label(queries, refs, labels, label_count).tobytes() == want.tobytes()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=strip_case(), label_count=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_min_cross_label_distance_matches_pair_scan(case, label_count, seed):
    """rho_hat's search: the least distance over all pairs of differing labels."""
    refs, queries = case
    z = np.concatenate([refs, queries])
    labels = np.random.default_rng(seed).integers(0, label_count, size=z.shape[0])
    differ = labels[:, None] != labels[None, :]
    want = math.sqrt(_full_sq(z, z)[differ].min()) if differ.any() else math.inf
    assert repr(_min_cross_label_distance(z, labels)) == repr(want)


def test_certify_finds_a_unify_violation_on_2d_images():
    """The D=8 scene with the target's labels swapped: map 15's 2-D images
    keep the source apart, so preserve passes, and the worst unify pair is
    the pair scan's."""
    prob = _wide_problem()
    comps = tuple(replace(c, label=1 - c.label) for c in prob.target.components)
    prob = ShiftProblem(prob.source, Scene(8, comps, 2), prob.family)
    budget, seed = CertBudget(600, 600), SeedSpec(2)
    report = certify(prob, 15, budget, seed)
    src, _ = _sample_points(prob.source, budget.n_source, seed.substream(11))
    tgt, _ = _sample_points(prob.target, budget.n_target, seed.substream(12))
    fmap = prob.family[15]
    want = _unify_pair_scan(
        apply_batch(fmap, tgt), bayes_labels_batch(prob.target, tgt),
        apply_batch(fmap, src), bayes_labels_batch(prob.source, src), report.rho_hat / 2,
    )
    assert report.preserves == "pass" and report.unifies == "fail" and want is not None
    assert report.worst_unify_violation == want
