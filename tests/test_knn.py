from collections import Counter

import numpy as np
import pytest

from sirmnn import distance, knn
from sirmnn.core import LabeledSet, SeedSpec, UnlabeledSet
from sirmnn.featuremaps import apply_batch, identity_map, linear_map, proj_family_random
from sirmnn.knn import (
    KnnClassifier,
    KSchedule,
    _neighbor_indices,
    _sorted_runs,
    _threshold_votes,
    k_nearest,
    k_of_n,
    predict,
    predict_batch,
)
from sirmnn.scenarios import PanelGeometry, figure1_panel, induced_source_labeler, sample

from test_core import make_set


def _vote(neighbor_labels: np.ndarray, label_count: int) -> np.ndarray:
    """Oracle: plurality vote per row of neighbor labels; ties go to the smallest label id."""
    m = neighbor_labels.shape[0]
    keys = np.arange(m)[:, None] * label_count + neighbor_labels
    counts = np.bincount(keys.ravel(), minlength=m * label_count).reshape(m, label_count)
    return counts.argmax(axis=1)


def brute_force_neighbors(train: LabeledSet, query, k, fmap=None):
    """Independent oracle: sort every (squared distance, index) pair."""
    from sirmnn.featuremaps import apply

    q = np.asarray(query, dtype=np.float64)
    qz = apply(fmap, q) if fmap is not None else q
    keyed = []
    for i in range(len(train)):
        xz = apply(fmap, train.points[i]) if fmap is not None else train.points[i]
        d = xz - qz
        keyed.append((float(np.dot(d, d)), i))
    keyed.sort()
    return [i for _, i in keyed[:k]]


def brute_force_predict(train: LabeledSet, query, k, fmap=None):
    idx = brute_force_neighbors(train, query, k, fmap)
    counts = Counter(int(train.labels[i]) for i in idx)
    top = max(counts.values())
    return min(lab for lab, c in counts.items() if c == top)


class TestKSchedule:
    def test_log_squared_clamps_to_one(self):
        assert k_of_n(KSchedule(), 1) == 1

    def test_log_squared_2000(self):
        assert k_of_n(KSchedule(), 2000) == 58  # ceil(ln(2000)^2) = ceil(57.77)

    def test_fixed_clamps_to_n(self):
        assert k_of_n(KSchedule("fixed", k=5), 3) == 3

    def test_emitted_range(self):
        for n in (1, 2, 10, 97, 10_000):
            assert 1 <= k_of_n(KSchedule(), n) <= n

    def test_invalid(self):
        with pytest.raises(ValueError):
            KSchedule("fixed")
        with pytest.raises(ValueError):
            k_of_n(KSchedule(), 0)


class TestKNearest:
    def test_singleton(self):
        train = make_set([[0.0, 0.0]], [0])
        assert k_nearest(train, (5.0, 5.0), 1) == [0]

    def test_equidistant_earlier_wins(self):
        train = make_set([[1.0, 0.0], [-1.0, 0.0]], [0, 1])
        assert k_nearest(train, (0.0, 0.0), 1) == [0]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(3)
        train = make_set(rng.normal(size=(20, 3)), rng.integers(0, 3, 20), 3)
        for _ in range(25):
            q = rng.normal(size=3)
            assert k_nearest(train, q, 5) == brute_force_neighbors(train, q, 5)

    def test_empty_train_errors(self):
        empty = LabeledSet(np.empty((0, 2)), np.empty(0, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            k_nearest(empty, (0.0, 0.0), 1)

    def test_k_out_of_range(self):
        train = make_set([[0.0]], [0])
        with pytest.raises(ValueError):
            k_nearest(train, (0.0,), 2)


class TestPredict:
    def test_k1_returns_nearest_label(self):
        train = make_set([[0.0], [10.0]], [2, 0], label_count=3)
        clf = KnnClassifier(train, 1)
        assert predict(clf, (1.0,)) == 2

    def test_strict_plurality(self):
        train = make_set([[0.0], [0.1], [5.0]], [0, 0, 1])
        clf = KnnClassifier(train, 3)
        assert predict(clf, (0.0,)) == 0

    def test_label_tie_smallest_id(self):
        # k=2 neighborhood holds one of each label; smallest id wins.
        train = make_set([[0.0], [1.0]], [1, 0])
        clf = KnnClassifier(train, 2)
        assert predict(clf, (0.4,)) == 0

    @pytest.mark.parametrize("label_count", range(1, 7))
    def test_vote_matches_one_hot_count(self, label_count):
        # Random rows, then rows where t labels share the top count exactly.
        rng = np.random.default_rng(label_count)
        rows = list(rng.integers(0, label_count, size=(100, 12)))
        winners = []
        for t in (t for t in (1, 2, 3, 4, 6) if t <= label_count):
            for _ in range(20):
                tied = rng.choice(label_count, size=t, replace=False)
                rows.append(rng.permutation(np.repeat(tied, 12 // t)))
                winners.append(int(tied.min()))
        labels = np.array(rows)
        one_hot = (labels[:, :, None] == np.arange(label_count)).sum(axis=1).argmax(axis=1)
        votes = _vote(labels, label_count)
        assert np.array_equal(votes, one_hot)
        assert votes[100:].tolist() == winners
        # The full scan votes each row as the labels of 12 training points, all among the k = 12 nearest.
        train_t, query_t = np.arange(12.0)[None], np.zeros((1, 1))
        assert [int(_threshold_votes(train_t, query_t, [[0]], row, label_count, 12)[0, 0]) for row in labels] == votes.tolist()

    @pytest.mark.parametrize("ties", [False, True])
    def test_full_scan_counts_past_2048_exactly(self, ties):
        # 4097 points at or below the k-th distance, 2049 of label 1 and 2048
        # of label 0: label 1 wins, but a float16 count holds 2049 as 2048 and
        # the tie would go to label 0. With ties every point sits on the query
        # and the last 100, all label 0, are surplus; without, the k nearest
        # lie at distinct radii, and 500 far points of label 0 follow.
        rng = np.random.default_rng(7)
        k = 4097
        labels = rng.permutation(np.r_[np.ones(2049, dtype=np.int64), np.zeros(2048, dtype=np.int64)])
        labels = np.r_[labels, np.zeros(100 if ties else 500, dtype=np.int64)]
        if ties:
            train = np.ones((labels.size, 2))
        else:
            radii = np.r_[rng.permutation(np.arange(1, k + 1)), np.arange(1, 501) + 2 * k] / (3 * k)
            angles = rng.uniform(0, 2 * np.pi, size=labels.size)
            train = 1.0 + radii[:, None] * np.c_[np.cos(angles), np.sin(angles)]
        queries = np.ones((3, 2))
        oracle = np.argsort(((queries[:, None, :] - train[None]) ** 2).sum(axis=2), axis=1, kind="stable")[:, :k]
        assert _vote(labels[oracle], 2).tolist() == [1, 1, 1]
        assert predict_batch(KnnClassifier(LabeledSet(train, labels, 2), k), UnlabeledSet(queries)).tolist() == [1, 1, 1]

    def test_dimension_mismatch(self):
        train = make_set([[0.0, 0.0]], [0])
        clf = KnnClassifier(train, 1)
        with pytest.raises(ValueError):
            predict(clf, (0.0,))


class TestPredictBatch:
    def test_empty(self):
        train = make_set([[0.0]], [0])
        clf = KnnClassifier(train, 1)
        out = predict_batch(clf, UnlabeledSet(np.empty((0, 1))))
        assert out.shape == (0,)

    def test_singleton(self):
        train = make_set([[0.0], [4.0]], [0, 1])
        clf = KnnClassifier(train, 1)
        out = predict_batch(clf, UnlabeledSet(np.array([[3.0]])))
        assert out.tolist() == [predict(clf, (3.0,))]

    def test_matches_sequential_loop(self):
        rng = np.random.default_rng(11)
        train = make_set(rng.normal(size=(50, 2)), rng.integers(0, 4, 50), 4)
        clf = KnnClassifier(train, 7)
        queries = rng.normal(size=(1000, 2))
        batch = predict_batch(clf, UnlabeledSet(queries))
        seq = [predict(clf, q) for q in queries]
        assert batch.tolist() == seq

    def test_single_queries_match_batch_under_linear_maps(self):
        # A linear image has the same bits alone as in a batch, so single
        # queries rank and vote exactly as their rows of a batch do, ties included.
        rng = np.random.default_rng(12)
        train = make_set(0.1 * rng.integers(-5, 6, size=(300, 3)), rng.integers(0, 3, 300), 3)
        queries = 0.1 * rng.integers(-5, 6, size=(150, 3))
        for fmap in proj_family_random(3, 2, 4, SeedSpec(1)).maps:
            clf = KnnClassifier(train, 6, fmap)
            batch = predict_batch(clf, UnlabeledSet(queries))
            idx = _neighbor_indices(apply_batch(fmap, train.points), apply_batch(fmap, queries), 6)
            for i, q in enumerate(queries):
                assert predict(clf, q) == batch[i]
                assert k_nearest(train, q, 6, fmap) == idx[i].tolist()


def _blocks_of_copies(rng, offset, m):
    """Integers 0..39, 50 copies each in shuffled index order, and queries an
    offset past a value in 1..37: with offset 0.25 the nearest block sits on
    the left and the next on the right, with offset 0.75 the other way round."""
    train = np.repeat(np.arange(40.0), 50)
    rng.shuffle(train)
    return train[:, None], (rng.integers(1, 38, size=m) + offset)[:, None]


@pytest.mark.parametrize("case", ["gaussian", "split_at_right_end", "split_at_left_end"])
@pytest.mark.parametrize("k", [1, 75])
def test_1d_search_takes_the_run_route(monkeypatch, case, k):
    """On 1-D images without copies, mirrored or rounding ties, votes come
    from the sorted run alone: no row is scanned in full, through
    predict_batch and, for k = 1, the induced labeler of a figure-1 panel.
    Blocks of copies vote as the stable-sort oracle does: k = 75 takes one
    whole block of 50 copies and splits the next one at the end the case
    names, k = 1 splits the nearest block at its end nearest the query, and
    the split rows, exactly, go to the tie rule, with their label counts at
    or below their k-th squared distance and their points at it. No case
    reaches plane_tiles, which is behind sq_blocks and every full scan. On
    Gaussian images every run starts at its midpoint guess, so the one search
    of the run starts gets brackets of width 0."""
    rng = np.random.default_rng(0)
    if case == "gaussian":
        train, queries = rng.normal(size=(2000, 1)), rng.normal(size=(500, 1))
    else:
        train, queries = _blocks_of_copies(rng, 0.25 if case == "split_at_right_end" else 0.75, 500)
    labels = rng.integers(0, 3, size=train.shape[0])
    oracle = np.argsort((queries - train.T) ** 2, axis=1, kind="stable")[:, :k]
    if case == "gaussian" and k == 1:
        prob = figure1_panel("c")
        labeler = induced_source_labeler(prob, 0, 2000, SeedSpec(0))
        probes = sample(prob.target, 500, SeedSpec(1)).points
    scans, exact, widths = [], [], []
    plane_tiles = distance.plane_tiles  # behind every full scan
    monkeypatch.setattr(distance, "plane_tiles", lambda *args: scans.append(args) or plane_tiles(*args))
    first_true = distance._first_true
    monkeypatch.setattr(distance, "_first_true", lambda lo, hi, pred: (
        widths.append((pred.__qualname__, int((hi - lo).max()))) or first_true(lo, hi, pred)))
    drop_last_ties = knn._drop_last_ties
    monkeypatch.setattr(
        knn, "_drop_last_ties", lambda counts, ties, *args: exact.append((counts.copy(), np.sort(ties))) or drop_last_ties(counts, ties, *args)
    )
    clf = KnnClassifier(LabeledSet(train, labels, 3), k)
    assert np.array_equal(predict_batch(clf, UnlabeledSet(queries)), _vote(labels[oracle], 3))
    if case == "gaussian" and k == 1:
        labeler(probes)
    assert scans == []
    if case == "gaussian":
        assert exact == []
        # Every run start is its midpoint guess: no row is left to search.
        assert widths and set(widths) == {("_run_starts.<locals>.near", 0)}
    else:
        rescan = _sorted_runs(train[:, 0], queries[:, 0], k)[2]
        assert rescan.any() and len(exact) == 1
        sq = (queries[rescan] - train.T) ** 2
        kth = np.sort(sq, axis=1)[:, k - 1 : k]
        counts = np.stack([np.bincount(labels[row], minlength=3) for row in sq <= kth])
        assert np.array_equal(exact[0][0], counts)
        assert np.array_equal(exact[0][1], np.flatnonzero(sq == kth))


def _binary_search_runs(x: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (start, rescan) of each query's run by a binary search of
    int(k).bit_length() steps over every row, moving right while xs[s] is
    strictly farther than xs[s + k]."""
    n = x.size
    xs = np.append(np.sort(x), np.inf)

    def sq(at):
        return (q - xs[at]) ** 2

    p = np.searchsorted(xs, q)
    s, hi = np.clip(p - k, 0, n - k), np.minimum(p, n - k)
    for _ in range(int(k).bit_length()):
        mid = (s + hi) // 2
        right = sq(mid) > sq(mid + k)
        s, hi = np.where(right, mid + 1, s), np.where(right, hi, mid)
    kth = np.maximum(sq(s), sq(s + k - 1))
    return s, (sq(s - 1) == kth) | (sq(s + k) == kth)


GUESS_CASES = ["gaussian", "copies", "constant", "ulp", "huge", "signed_zeros"]


def _guess_case(case: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """(training values, queries) of 1-D images; the queries reach past both
    ends of the training values."""
    n, m = 120, 300
    if case == "gaussian":
        return rng.normal(size=n), rng.normal(scale=2.0, size=m)
    if case == "copies":
        return rng.integers(0, 8, size=n).astype(float), rng.integers(-2, 10, size=m) + rng.choice([0, 0.25, 0.5], size=m)
    if case == "constant":
        return np.full(n, 1.5), rng.choice([1.5, 0.0, 3.0, -1e3], size=m)
    if case == "ulp":
        return 1.0 + np.spacing(1.0) * rng.integers(0, 12, size=n), 1.0 + np.spacing(1.0) * rng.integers(-4, 16, size=m)
    if case == "huge":
        ends = [-1.79e308, -1.7e308, -1e308, 1e308, 1.7e308, 1.79e308]
        return rng.choice(ends, size=n), np.concatenate([rng.choice(ends + [0.0], size=m // 2), 1.79e308 * rng.uniform(-1, 1, m - m // 2)])
    return rng.choice([0.0, -0.0, 1.0, -1.0], size=n), rng.choice([0.0, -0.0, 0.5, -0.5, 2.0], size=m)


@pytest.mark.parametrize("guess", ["midpoint", "lo", "hi", "between", "outside"])
@pytest.mark.parametrize("k", ["1", "37", "n - 1", "n"])
@pytest.mark.parametrize("case", GUESS_CASES)
def test_run_start_guess_is_only_a_hint(monkeypatch, case, k, guess):
    """Whatever the guess, at its bracket's ends, anywhere between them or
    outside it, each run starts where the binary search over every row puts
    it, and the same rows are rescanned."""
    rng = np.random.default_rng(GUESS_CASES.index(case))
    x, q = _guess_case(case, rng)
    k = {"1": 1, "37": 37, "n - 1": x.size - 1, "n": x.size}[k]
    run_starts = knn._run_starts

    def forced(xs, qs, k, midpoint_guess):
        p = np.searchsorted(xs, qs)
        lo, hi = np.clip(p - k, 0, x.size - k), np.minimum(p, x.size - k)
        g = {"midpoint": midpoint_guess, "lo": lo, "hi": hi, "between": rng.integers(lo, hi + 1),
             "outside": np.where(rng.random(qs.size) < 0.5, lo - 1 - 3 * k, hi + 1 + 3 * k)}[guess]
        return run_starts(xs, qs, k, g)

    monkeypatch.setattr(knn, "_run_starts", forced)
    with np.errstate(over="ignore"):
        _, start, rescan = _sorted_runs(x, q, k)
        want_start, want_rescan = _binary_search_runs(x, q, k)
    assert np.array_equal(start, want_start)
    assert np.array_equal(rescan, want_rescan)


@pytest.mark.parametrize("n, k", [(400, 36), (1000, 48)])
@pytest.mark.parametrize("case", ["gaussian", "lattice"])
def test_2d_scan_takes_the_float32_route(monkeypatch, case, n, k):
    """On continuous 2-D Gaussian images no row of the full scan ties at its
    k-th float32 key, so no row reaches the exact float64 tie route; on an
    integer lattice rows do. Votes match the stable-sort oracle either way."""
    rng = np.random.default_rng(n)
    if case == "gaussian":
        train, queries = rng.normal(size=(n, 2)), rng.normal(size=(500, 2))
    else:
        train, queries = (rng.integers(0, 12, size=(size, 2)).astype(float) for size in (n, 500))
    labels = rng.integers(0, 3, size=n)
    oracle = np.argsort(((queries[:, None] - train[None]) ** 2).sum(axis=2), axis=1, kind="stable")[:, :k]
    exact = []
    drop_last_ties = knn._drop_last_ties
    monkeypatch.setattr(knn, "_drop_last_ties", lambda counts, *args: exact.append(counts.shape[0]) or drop_last_ties(counts, *args))
    got = predict_batch(KnnClassifier(LabeledSet(train, labels, 3), k), UnlabeledSet(queries))
    assert np.array_equal(got, _vote(labels[oracle], 3))
    assert (sum(exact) == 0) == (case == "gaussian")


class TestClassifierProperties:
    def test_identity_map_equivalence(self):
        rng = np.random.default_rng(5)
        train = make_set(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), 2)
        plain = KnnClassifier(train, 5)
        mapped = KnnClassifier(train, 5, identity_map(2))
        queries = UnlabeledSet(rng.normal(size=(200, 2)))
        assert np.array_equal(predict_batch(plain, queries), predict_batch(mapped, queries))

    def test_order_robust_when_distances_distinct(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(25, 2))
        labels = rng.integers(0, 3, 25)
        train = make_set(pts, labels, 3)
        perm = rng.permutation(25)
        shuffled = make_set(pts[perm], labels[perm], 3)
        queries = rng.normal(size=(100, 2))
        a = predict_batch(KnnClassifier(train, 5), UnlabeledSet(queries))
        b = predict_batch(KnnClassifier(shuffled, 5), UnlabeledSet(queries))
        # continuous coordinates: ties have probability zero
        assert np.array_equal(a, b)

    def test_comparer_equivalent_maps_agree(self):
        # Scaling all coordinates preserves every distance comparison, so
        # predictions agree even where exact ties are broken by order.
        rng = np.random.default_rng(8)
        pts = rng.integers(-3, 4, size=(20, 2)).astype(float)
        train = make_set(pts, rng.integers(0, 2, 20), 2)
        scale2 = linear_map(np.eye(2) * 0.5)
        a = KnnClassifier(train, 4, identity_map(2))
        b = KnnClassifier(train, 4, scale2)
        queries = UnlabeledSet(rng.integers(-3, 4, size=(150, 2)).astype(float))
        assert np.array_equal(predict_batch(a, queries), predict_batch(b, queries))


@pytest.mark.slow
def test_risk_consistency_desk_scale():
    """Identity-map k-NN on a noiseless separated scene: risk <= 0.02."""
    prob = figure1_panel("a", PanelGeometry())
    risks = []
    for trial in range(10):
        seed = SeedSpec(500 + trial)
        n = 2000
        train = sample(prob.source, n, seed.substream(0))
        clf = KnnClassifier(train, k_of_n(KSchedule(), n))
        held_out = sample(prob.source, 10_000, seed.substream(1))
        preds = predict_batch(clf, held_out.unlabeled())
        risks.append(float((preds != held_out.labels).mean()))
    assert sorted(risks)[len(risks) // 2] <= 0.02
