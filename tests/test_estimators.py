import math

import numpy as np
import pytest

from sirmnn.core import SeedSpec, UnlabeledSet
from sirmnn.estimators import (
    beta_estimate,
    empirical_risk,
    source_margin,
    target_margin,
)
from sirmnn.featuremaps import apply_batch, coordinate_map, identity_map
from sirmnn.knn import KnnClassifier, predict
from sirmnn.scenarios import PanelGeometry, figure1_panel, sample

from test_core import make_set


class TestSourceLoss:
    def test_memorization_is_zero(self):
        rng = np.random.default_rng(0)
        s = make_set(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), 2)
        assert empirical_risk(KnnClassifier(s, 1), s).value == 0.0

    def test_all_flipped_is_one(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 20])
        labels = np.array([0] * 10 + [1] * 10)
        s_tr = make_set(pts, labels, 2)
        s_loss = make_set(pts, 1 - labels, 2)
        assert empirical_risk(KnnClassifier(s_tr, 1), s_loss).value == 1.0

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(2)
        s_tr = make_set(rng.normal(size=(50, 3)), rng.integers(0, 3, 50), 3)
        s_loss = make_set(rng.normal(size=(50, 3)), rng.integers(0, 3, 50), 3)
        fmap = coordinate_map(3, [0, 2])
        clf = KnnClassifier(s_tr, 5, fmap)
        est = empirical_risk(clf, s_loss)
        wrong = sum(predict(clf, x) != y for x, y in zip(s_loss.points, s_loss.labels))
        assert est.value == wrong / 50
        assert est.count == 50
        assert est.errors == wrong

    def test_empty_loss_set_errors(self):
        s = make_set([[0.0]], [0])
        empty = s.slice(0, 0)
        with pytest.raises(ValueError):
            empirical_risk(KnnClassifier(s, 1), empty)


class TestSourceMargin:
    def test_all_same_prediction_is_inf(self):
        s_tr = make_set([[0.0], [1.0]], [0, 0])
        s_src = make_set([[0.1], [0.2], [0.3], [0.4]], [0] * 4)
        assert source_margin(KnnClassifier(s_tr, 1), s_src) == math.inf

    def test_hand_case(self):
        # pairs: ((0,0),(1,0)) predicted (A,B) -> d=1; ((0,0),(3,0)) predicted (A,A) -> inf
        s_tr = make_set([[0.0, 0.0], [1.2, 0.0], [3.0, 0.0]], [0, 1, 0])
        s_src = make_set([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], [0, 0, 1, 0])
        assert source_margin(KnnClassifier(s_tr, 1), s_src) == 1.0

    def test_odd_sample_drops_last(self):
        rng = np.random.default_rng(3)
        s_tr = make_set(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), 2)
        pts = rng.normal(size=(11, 2))
        odd = make_set(pts, rng.integers(0, 2, 11), 2)
        even = make_set(pts[:10], odd.labels[:10], 2)
        clf = KnnClassifier(s_tr, 3)
        assert source_margin(clf, odd) == source_margin(clf, even)

    def test_too_small_errors(self):
        s = make_set([[0.0]], [0])
        with pytest.raises(ValueError):
            source_margin(KnnClassifier(s, 1), s)

    def test_never_below_true_margin_with_exact_predictor(self):
        # Noiseless separated scene; a dense memorizing 1-NN matches the
        # class regions, so disagreeing pairs span regions >= rho apart.
        prob = figure1_panel("a", PanelGeometry())
        rho = prob.source.margin()
        for trial in range(20):
            seed = SeedSpec(900 + trial)
            s_tr = sample(prob.source, 600, seed.substream(0))
            s_src = sample(prob.source, 200, seed.substream(1))
            got = source_margin(KnnClassifier(s_tr, 1), s_src)
            assert got >= rho


class TestTargetMargin:
    def test_block_count_rule(self):
        # n=100, m=20 -> l = min(20, 10) = 10: uses u_0..u_9 and 100 source pts
        rng = np.random.default_rng(4)
        src = make_set(rng.normal(size=(100, 2)), [0] * 100)
        u_pts = rng.normal(size=(20, 2))
        full = target_margin(None, src, UnlabeledSet(u_pts))
        # extra target points beyond l are ignored
        trimmed = target_margin(None, src, UnlabeledSet(u_pts[:10]))
        assert full == trimmed

    def test_coincident_targets_zero(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(9, 2))
        src = make_set(pts, [0] * 9)
        # l = 3; u_i equals a point inside block i
        u = UnlabeledSet(np.stack([pts[0], pts[4], pts[8]]))
        assert target_margin(None, src, u) == 0.0

    def test_l2_toy_hand_computed(self):
        # l = 2, blocks {(0,), (1,)} and {(10,), (11,)}
        src = make_set([[0.0], [1.0], [10.0], [11.0]], [0] * 4)
        u = UnlabeledSet(np.array([[2.0], [15.0]]))
        # u_0 -> min(|2-0|, |2-1|) = 1 ; u_1 -> min(|15-10|, |15-11|) = 4
        assert target_margin(None, src, u) == 4.0

    def test_exhaustive_block_oracle(self):
        rng = np.random.default_rng(6)
        src_pts = rng.normal(size=(25, 3))
        src = make_set(src_pts, [0] * 25)
        u_pts = rng.normal(size=(7, 3))
        got = target_margin(None, src, UnlabeledSet(u_pts))
        l = min(7, math.isqrt(25))  # 5
        vals = []
        for i in range(l):
            block = src_pts[i * l : (i + 1) * l]
            vals.append(min(np.linalg.norm(u_pts[i] - x) for x in block))
        assert got == pytest.approx(max(vals), rel=1e-12)

    def test_empty_errors(self):
        src = make_set([[0.0]], [0])
        with pytest.raises(ValueError):
            target_margin(None, src, UnlabeledSet(np.empty((0, 1))))

    def test_blocked_at_least_pooled_beta(self):
        rng = np.random.default_rng(7)
        src_pts = rng.normal(size=(36, 2))
        src = make_set(src_pts, [0] * 36)
        u_pts = rng.normal(size=(6, 2))
        blocked = target_margin(None, src, UnlabeledSet(u_pts))
        pooled = beta_estimate(None, UnlabeledSet(src_pts), UnlabeledSet(u_pts))
        assert blocked >= pooled


class TestEmpiricalRisk:
    def test_perfect(self):
        rng = np.random.default_rng(8)
        s = make_set(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), 2)
        clf = KnnClassifier(s, 1)
        assert empirical_risk(clf, s).value == 0.0

    def test_constant_on_balanced_eval(self):
        train = make_set([[0.0]], [0])  # constant predictor: always 0
        clf = KnnClassifier(train, 1)
        pts = np.linspace(-1, 1, 100).reshape(100, 1)
        eval_set = make_set(pts, [0, 1] * 50, 2)
        assert empirical_risk(clf, eval_set).value == 0.5


class TestBetaEstimate:
    def test_target_subset_of_source(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 2))
        assert beta_estimate(None, UnlabeledSet(pts), UnlabeledSet(pts[:7])) == 0.0

    def test_single_pair(self):
        src = UnlabeledSet(np.array([[0.0, 0.0]]))
        tgt = UnlabeledSet(np.array([[2.0, 0.0]]))
        assert beta_estimate(None, src, tgt) == 2.0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(50, 3))
        tgt = rng.normal(size=(50, 3))
        fmap = coordinate_map(3, [0, 1])
        got = beta_estimate(fmap, UnlabeledSet(src), UnlabeledSet(tgt))
        zs = apply_batch(fmap, src)
        zt = apply_batch(fmap, tgt)
        oracle = max(min(np.linalg.norm(t - s) for s in zs) for t in zt)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(12)
        s_tr = make_set(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), 2)
        ev = make_set(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), 2)
        assert 0.0 <= empirical_risk(KnnClassifier(s_tr, 3), ev).value <= 1.0
        assert beta_estimate(None, s_tr.unlabeled(), ev.unlabeled()) >= 0.0


@pytest.mark.slow
def test_hoeffding_calibration_small():
    """The held-out source loss stays inside the 99% Hoeffding envelope (x3 slack)."""
    prob = figure1_panel("a", PanelGeometry(flip_prob=0.1))
    n_loss = 400
    envelope = 3 * math.sqrt(math.log(2 / 0.01) / (2 * n_loss))
    hits = 0
    trials = 50
    for trial in range(trials):
        seed = SeedSpec(3000 + trial)
        s_tr = sample(prob.source, 200, seed.substream(0))
        s_loss = sample(prob.source, n_loss, seed.substream(1))
        clf = KnnClassifier(s_tr, 9, identity_map(2))
        est = empirical_risk(clf, s_loss)
        truth = sample(prob.source, 20_000, seed.substream(2))
        true_risk = empirical_risk(clf, truth).value
        if abs(est.value - true_risk) <= envelope:
            hits += 1
    assert hits >= trials - 1
