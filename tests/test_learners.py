import json
import math

import numpy as np
import pytest

from sirmnn import knn
from sirmnn.core import SeedSpec, UnlabeledSet
from sirmnn.estimators import empirical_risk
from sirmnn.featuremaps import FeatureFamily, cor_family, identity_map
from sirmnn.knn import KSchedule, k_of_n
from sirmnn.learners import (
    LearnerConfig,
    direct_generalize_nn,
    feature_validate,
    presrv_contract_nn,
    target_sample_budget,
)
from sirmnn.scenarios import figure1_panel, sample, sample_unlabeled, twin_targets

from test_core import make_set


def random_labeled(n, dim, seed, label_count=2):
    rng = np.random.default_rng(seed)
    return make_set(rng.normal(size=(n, dim)), rng.integers(0, label_count, n), label_count)


class TestDirectGeneralize:
    def test_singleton_family(self):
        s = random_labeled(40, 2, 0)
        fam = FeatureFamily((identity_map(2),))
        out = direct_generalize_nn(s, fam)
        assert out.chosen_map_index == 0
        assert out.classifier.fmap.kind == "identity"
        assert len(out.classifier.train) == 10  # final quarter

    def test_small_sample_errors(self):
        s = random_labeled(7, 2, 1)
        with pytest.raises(ValueError, match="at least 8"):
            direct_generalize_nn(s, cor_family(2, 1))

    def test_panel_a_selects_y_projection(self):
        prob = figure1_panel("a")
        wins = 0
        for trial in range(10):
            s = sample(prob.source, 2000, SeedSpec(40 + trial))
            out = direct_generalize_nn(s, prob.family)
            wins += out.chosen_map_index == 1
        assert wins >= 9

    def test_equal_margins_tie_to_smallest_index(self):
        # Identical maps scored identically: duplicate-free family of two
        # coordinate maps on symmetric data built to tie exactly.
        pts = np.array([[i, i] for i in range(16)], dtype=float)
        labels = np.array([0, 1] * 8)
        s = make_set(pts, labels, 2)
        fam = cor_family(2, 1)  # both maps see identical 1-D data
        out = direct_generalize_nn(s, fam, LearnerConfig(k_schedule=KSchedule("fixed", k=1)))
        d0, d1 = out.diagnostics
        assert d0.source_margin == d1.source_margin
        assert d0.source_loss == d1.source_loss
        assert out.chosen_map_index == 0

    def test_admission_soundness(self):
        prob = figure1_panel("a")
        s = sample(prob.source, 1200, SeedSpec(41))
        out = direct_generalize_nn(s, prob.family)
        eps = out.epsilon
        best = min(d.source_loss for d in out.diagnostics)
        for d in out.diagnostics:
            assert d.admitted == (d.source_loss <= best + eps)

    def test_absolute_mode_fallback_flag(self):
        # label noise keeps every loss above a tiny absolute threshold,
        # forcing the empty-admission fallback to the min-loss map
        from sirmnn.scenarios import PanelGeometry

        prob = figure1_panel("a", PanelGeometry(flip_prob=0.2))
        s = sample(prob.source, 800, SeedSpec(42))
        cfg = LearnerConfig(epsilon=1e-12, admission_mode="absolute")
        out = direct_generalize_nn(s, prob.family, cfg)
        assert out.fallback
        assert not any(d.admitted for d in out.diagnostics)
        losses = [d.source_loss for d in out.diagnostics]
        assert out.chosen_map_index == losses.index(min(losses))

    def test_determinism(self):
        prob = figure1_panel("a")
        s = sample(prob.source, 600, SeedSpec(43))
        a = direct_generalize_nn(s, prob.family)
        b = direct_generalize_nn(s, prob.family)
        assert a.chosen_map_index == b.chosen_map_index
        assert a.to_json() == b.to_json()


class TestPresrvContract:
    def test_singleton_family(self):
        s = random_labeled(50, 2, 2)
        u = UnlabeledSet(np.random.default_rng(3).normal(size=(10, 2)))
        out = presrv_contract_nn(s, u, FeatureFamily((identity_map(2),)))
        assert out.chosen_map_index == 0
        assert len(out.classifier.train) == 10  # trained on the first fifth

    def test_small_inputs_error(self):
        s = random_labeled(9, 2, 4)
        u = UnlabeledSet(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least 10"):
            presrv_contract_nn(s, u, cor_family(2, 1))
        with pytest.raises(ValueError, match="unlabeled"):
            presrv_contract_nn(random_labeled(50, 2, 5), UnlabeledSet(np.empty((0, 2))), cor_family(2, 1))

    def test_panel_b_selects_y_projection(self):
        prob = figure1_panel("b")
        wins = 0
        for trial in range(10):
            seed = SeedSpec(60 + trial)
            s = sample(prob.source, 2000, seed.substream(0))
            u = sample_unlabeled(prob.target, 50, seed.substream(1))
            out = presrv_contract_nn(s, u, prob.family)
            wins += out.chosen_map_index == 1
        assert wins >= 9

    def test_target_equals_source_reduces_to_margin(self):
        prob = figure1_panel("b")
        seed = SeedSpec(61)
        s = sample(prob.source, 1000, seed.substream(0))
        u = UnlabeledSet(s.points[:40])  # target points are source points
        out = presrv_contract_nn(s, u, prob.family)
        margins = [d.source_margin for d in out.diagnostics]
        # contraction penalties are tiny for both maps, margins decide
        assert out.chosen_map_index == margins.index(max(margins))

    def test_score_dominance(self):
        prob = figure1_panel("b")
        seed = SeedSpec(62)
        s = sample(prob.source, 1500, seed.substream(0))
        u = sample_unlabeled(prob.target, 30, seed.substream(1))
        out = presrv_contract_nn(s, u, prob.family)
        chosen = out.diagnostics[out.chosen_map_index]
        for d in out.diagnostics:
            if d.admitted:
                assert chosen.score >= d.score

    def test_infinite_margin_dominates(self):
        # One-class data: every map sees an infinite margin; scores are inf
        # and the tie breaks to index 0.
        s = random_labeled(60, 2, 6, label_count=1)
        u = UnlabeledSet(np.random.default_rng(7).normal(size=(5, 2)))
        out = presrv_contract_nn(s, u, cor_family(2, 1))
        assert out.chosen_map_index == 0
        assert math.isinf(out.diagnostics[0].score)

    def test_label_blindness_on_twins(self):
        prob = figure1_panel("c")
        t1, t2 = twin_targets(prob, 0, 1, seed=SeedSpec(63))
        for trial in range(5):
            seed = SeedSpec(70 + trial)
            s = sample(prob.source, 1000, seed.substream(0))
            u1 = sample_unlabeled(t1, 30, seed.substream(1))
            u2 = sample_unlabeled(t2, 30, seed.substream(1))
            o1 = presrv_contract_nn(s, u1, prob.family)
            o2 = presrv_contract_nn(s, u2, prob.family)
            assert o1.chosen_map_index == o2.chosen_map_index


class TestFeatureValidate:
    def test_singleton_family(self):
        s = random_labeled(30, 2, 8)
        t = random_labeled(10, 2, 9)
        out = feature_validate(s, t, FeatureFamily((identity_map(2),)), k=3)
        assert out.chosen_map_index == 0
        assert len(out.classifier.train) == 30  # all of s

    def test_zero_loss_map_wins(self):
        # label target by the x-projection classifier itself
        rng = np.random.default_rng(10)
        s = make_set(rng.normal(size=(60, 2)), rng.integers(0, 2, 60), 2)
        fam = cor_family(2, 1)
        from sirmnn.knn import KnnClassifier, predict_batch

        probe = UnlabeledSet(rng.normal(size=(25, 2)))
        labels = predict_batch(KnnClassifier(s, 3, fam[0]), probe)
        t = make_set(probe.points, labels, 2)
        out = feature_validate(s, t, fam, k=3)
        assert out.diagnostics[0].target_loss == 0.0
        assert out.chosen_map_index == 0

    def test_panel_c_selects_unifying_map(self):
        prob = figure1_panel("c")
        wins = 0
        for trial in range(10):
            seed = SeedSpec(80 + trial)
            s = sample(prob.source, 2000, seed.substream(0))
            t = sample(prob.target, 25, seed.substream(1))
            out = feature_validate(s, t, prob.family, k=k_of_n(KSchedule(), len(s)))
            wins += out.chosen_map_index == 1
        assert wins >= 9

    def test_empty_errors(self):
        s = random_labeled(10, 2, 11)
        with pytest.raises(ValueError):
            feature_validate(s, s.slice(0, 0), cor_family(2, 1), k=1)


FAMILY = cor_family(4, 2)  # F = 6 maps
F = len(FAMILY)


@pytest.mark.parametrize("learn, built, searches", [
    (lambda s, u, t: direct_generalize_nn(s, FAMILY), F + 1, 2 * F),
    (lambda s, u, t: presrv_contract_nn(s, u, FAMILY), F, 2 * F),
    (lambda s, u, t: feature_validate(s, t, FAMILY, 3), F, F),
], ids=["source-only", "unlabeled", "validate"])
def test_one_classifier_per_map(monkeypatch, learn, built, searches):
    """Each rule trains one k-NN classifier per map and searches it once per
    query set: loss and margin for the source-side rules, the target for
    validation. The source-only rule also trains its final classifier."""
    s = random_labeled(80, 4, 30)
    u = UnlabeledSet(np.random.default_rng(31).normal(size=(20, 4)))
    t = random_labeled(20, 4, 32)
    counts = {"built": 0, "searches": 0}
    post_init, search = knn.KnnClassifier.__post_init__, knn._neighbor_indices

    def counted_post_init(self):
        counts["built"] += 1
        post_init(self)

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    monkeypatch.setattr(knn.KnnClassifier, "__post_init__", counted_post_init)
    monkeypatch.setattr(knn, "_neighbor_indices", counted_search)
    learn(s, u, t)
    assert counts == {"built": built, "searches": searches}


class TestTargetSampleBudget:
    def test_halving_epsilon_quadruples(self):
        a = target_sample_budget(16.0, 2000, 0.2, 0.05, 1.0)
        b = target_sample_budget(16.0, 2000, 0.1, 0.05, 1.0)
        raw = 16 * math.log(2016) + math.log(20)
        assert a == math.ceil(raw / 0.04)
        assert b == math.ceil(raw / 0.01)
        assert math.ceil(4 * (raw / 0.04)) == math.ceil(raw / 0.01)

    def test_arithmetic_oracle(self):
        # oracle: direct evaluation of the stated formula
        expected = math.ceil((16 * math.log(2000 + 16) + math.log(1 / 0.05)) / 0.1**2)
        assert expected == 12474
        assert target_sample_budget(16.0, 2000, 0.1, 0.05, 1.0) == expected

    def test_monotone_in_delta(self):
        prev = 0
        for delta in (0.2, 0.1, 0.05, 0.01):
            cur = target_sample_budget(8.0, 500, 0.1, delta, 1.0)
            assert cur >= prev
            prev = cur

    def test_range_validation(self):
        with pytest.raises(ValueError):
            target_sample_budget(0.0, 10, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            target_sample_budget(4.0, 10, 1.5, 0.1, 1.0)


class TestOutputSerialization:
    def test_json_has_full_diagnostics(self):
        prob = figure1_panel("a")
        s = sample(prob.source, 400, SeedSpec(90))
        out = direct_generalize_nn(s, prob.family)
        js = out.to_json()
        assert js["schema_version"] == 1
        assert len(js["diagnostics"]) == len(prob.family)
        json.dumps(js)  # must be serializable (inf encoded as string)

    def test_inf_encoding(self):
        s = random_labeled(40, 2, 12, label_count=1)
        u = UnlabeledSet(np.random.default_rng(13).normal(size=(5, 2)))
        out = presrv_contract_nn(s, u, cor_family(2, 1))
        js = out.to_json()
        assert js["diagnostics"][0]["source_margin"] == "inf"
        json.dumps(js)


def test_learned_classifier_transfers():
    """End-to-end: panel (a) learner generalizes to the shifted target."""
    prob = figure1_panel("a")
    seed = SeedSpec(91)
    s = sample(prob.source, 2000, seed.substream(0))
    out = direct_generalize_nn(s, prob.family)
    eval_t = sample(prob.target, 2000, seed.substream(1))
    assert empirical_risk(out.classifier, eval_t).value <= 0.05
