from collections import Counter

import numpy as np
import pytest

from sirmnn.core import LabeledSet, SeedSpec, UnlabeledSet
from sirmnn.featuremaps import apply_batch, identity_map, linear_map, proj_family_random
from sirmnn.knn import KnnClassifier, KSchedule, _neighbor_indices, _vote, k_nearest, k_of_n, predict, predict_batch
from sirmnn.scenarios import PanelGeometry, figure1_panel, sample

from test_core import make_set


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
            idx = _neighbor_indices(clf._train_z, apply_batch(fmap, queries), 6)
            for i, q in enumerate(queries):
                assert predict(clf, q) == batch[i]
                assert k_nearest(train, q, 6, fmap) == idx[i].tolist()


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
