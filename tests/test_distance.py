"""Chunk-size independence of every caller of the chunked distance kernel.

Each test reruns a caller with the chunk budget forced down to 1-row chunks
and to a few rows per chunk (leaving a ragged last chunk), and requires
exactly the output of the default budget. The k-NN search is also compared
with a full stable-sort oracle on tie-heavy integer lattices and on 1-D
floats a few ulps apart, which exercise the window search of 1-D images.
The nearest-reference routes (the sorted 1-D `min_sq`, the per-label
`min_sq_by_label` table behind certify, the k = 1 search behind the induced
labeler and the certify unify scan) are compared with full scans on the same
kinds of lattices. The kernel's bits are checked against a coordinate-order
plane sum for C-ordered, Fortran-ordered and strided inputs, as are the
paired distances of `pair_sq` and the margins built on them.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirmnn import distance
from sirmnn.core import LabeledSet, SeedSpec, UnlabeledSet
from sirmnn.estimators import beta_estimate, source_margin, target_margin
from sirmnn.featuremaps import apply_batch, cor_family
from sirmnn.knn import KnnClassifier, _neighbor_indices, _top_k, predict_batch
from sirmnn.scenarios import (
    CertBudget,
    Scene,
    SceneComponent,
    ShiftProblem,
    _sample_points,
    _worst_unify_violation,
    bayes_labels_batch,
    certify,
    figure1_panel,
    induced_source_labeler,
    perturb_source,
)

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
        monkeypatch.setattr(distance, "CHUNK_ENTRIES", budget)
        assert fn() == want, f"budget {budget}"
    return want


def test_blocks_cover_every_row_with_a_ragged_tail(lattice, monkeypatch):
    train, queries = lattice
    monkeypatch.setattr(distance, "CHUNK_ENTRIES", RAGGED)
    blocks = list(distance.sq_blocks(queries, train))
    rows = [sq.shape[0] for _, sq in blocks]
    assert rows[0] == 7 and rows[-1] == M % 7 != 0
    assert [lo for lo, _ in blocks] == list(range(0, M, 7))
    exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.concatenate([sq for _, sq in blocks]), exact)
    assert np.array_equal(distance.min_sq(queries, train), exact.min(axis=1))


@pytest.mark.parametrize("budget", [*SMALL_BUDGETS, distance.CHUNK_ENTRIES])
def test_neighbor_indices_match_stable_sort_oracle(lattice, monkeypatch, budget):
    train, queries = lattice
    exact = ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    ranked = np.sort(exact, axis=1)
    # k sits inside a run of equal distances for most queries.
    assert np.mean(ranked[:, K - 1] == ranked[:, K]) > 0.5
    oracle = np.argsort(exact, axis=1, kind="stable")[:, :K]
    monkeypatch.setattr(distance, "CHUNK_ENTRIES", budget)
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
    queries reaching past the training values so that windows clip at both
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
    budget = rows * train.size if forced else distance.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "CHUNK_ENTRIES", budget)
        assert np.array_equal(_neighbor_indices(train, queries, k), oracle)


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
            assert _full_sq(q, r).tobytes() == want.tobytes(), (rl, ql)
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
    sq = np.vstack([sq for _, sq in distance.sq_blocks(apply_batch(fmap, probe), apply_batch(fmap, pts))])
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
    return np.vstack([sq for _, sq in distance.sq_blocks(queries, refs)])


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
    assert np.array_equal(_top_k(sq, 1)[:, 0], want)
    budget = rows * refs.size if forced else distance.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "CHUNK_ENTRIES", budget)
        assert np.array_equal(_neighbor_indices(refs, queries, 1)[:, 0], want)


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
    budget = rows * refs.size if forced else distance.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "CHUNK_ENTRIES", budget)
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
    worst = None
    for lo, sq in distance.sq_blocks(zt, zs):
        close = sq < limit * limit
        if not np.any(close):
            continue
        ti, si = np.nonzero(close)
        disagree = tgt_bayes[lo + ti] != src_bayes[si]
        if np.any(disagree):
            bad = np.nonzero(disagree)[0]
            d = np.sqrt(sq[ti[bad], si[bad]])
            w = int(bad[d.argmin()])
            cand = (float(d.min()), int(si[w]), int(lo + ti[w]))
            if worst is None or cand[0] < worst[0]:
                worst = cand
    return worst


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
    budget = rows * zs.size if forced else distance.CHUNK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "CHUNK_ENTRIES", budget)
        near = distance.min_sq_by_label(zt, zs, src_bayes, 1 + max(src_bayes.max(), tgt_bayes.max()))
        assert repr(_worst_unify_violation(near, zt, tgt_bayes, zs, src_bayes, limit)) == repr(want)

