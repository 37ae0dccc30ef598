import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sirmnn.core import SeedSpec
from sirmnn.estimators import empirical_risk
from sirmnn.featuremaps import FeatureFamily, cor_family, linear_map
from sirmnn.knn import KnnClassifier
from sirmnn.scenarios import (
    CertBudget,
    PanelGeometry,
    Scene,
    SceneComponent,
    ShiftProblem,
    bayes_label,
    bayes_labels_batch,
    bayes_risk,
    certify,
    figure1_panel,
    perturb_source,
    sample,
    sample_unlabeled,
    twin_targets,
)


def two_ball_scene(flip=0.0, gap=2.0, radius=0.5):
    comps = (
        SceneComponent(center=(0.0, gap / 2), radius=radius, label=0, weight=0.5, flip_prob=flip),
        SceneComponent(center=(0.0, -gap / 2), radius=radius, label=1, weight=0.5, flip_prob=flip),
    )
    return Scene(2, comps, 2)


class TestSampling:
    def test_n_zero(self):
        s = sample(two_ball_scene(), 0, SeedSpec(0))
        assert len(s) == 0 and s.dim == 2

    def test_single_component_no_flip(self):
        scene = Scene(2, (SceneComponent((0.0, 0.0), 1.0, 1, 1.0),), 2)
        s = sample(scene, 200, SeedSpec(1))
        assert set(s.labels.tolist()) == {1}

    def test_points_inside_balls(self):
        scene = two_ball_scene()
        s = sample(scene, 500, SeedSpec(2))
        centers = scene.centers()
        d = np.linalg.norm(s.points[:, None, :] - centers[None, :, :], axis=2).min(axis=1)
        assert np.all(d <= 0.5 + 1e-12)

    def test_flip_fraction_binomial(self):
        # flip indicator is Bernoulli(0.1); 10k draws concentrate in +-0.01
        scene = two_ball_scene(flip=0.1)
        s = sample(scene, 10_000, SeedSpec(3))
        truth = bayes_labels_batch(scene, s.points)
        flipped = float((s.labels != truth).mean())
        assert abs(flipped - 0.1) <= 0.01

    def test_deterministic(self):
        a = sample(two_ball_scene(), 50, SeedSpec(4))
        b = sample(two_ball_scene(), 50, SeedSpec(4))
        assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)

    def test_unlabeled_shares_point_stream(self):
        scene = two_ball_scene(flip=0.2)
        a = sample(scene, 50, SeedSpec(5))
        u = sample_unlabeled(scene, 50, SeedSpec(5))
        assert np.array_equal(a.points, u.points)


class TestBayesOracles:
    def test_no_flip_zero_risk(self):
        assert bayes_risk(two_ball_scene(flip=0.0)) == 0.0

    def test_weighted_sum(self):
        comps = (
            SceneComponent((0.0,), 0.5, 0, 0.5, 0.1),
            SceneComponent((5.0,), 0.5, 1, 0.5, 0.3),
        )
        assert bayes_risk(Scene(1, comps, 2)) == pytest.approx(0.2)

    def test_label_inside_ball(self):
        scene = two_ball_scene(flip=0.1)
        assert bayes_label(scene, (0.1, 1.0)) == 0
        assert bayes_label(scene, (0.1, -1.0)) == 1

    def test_outside_support_nearest_component(self):
        scene = two_ball_scene()
        assert bayes_label(scene, (0.0, 10.0)) == 0

    @pytest.mark.parametrize("points", [[[0.5]], [[0.5, 0.5, 0.5]]], ids=["1-D", "3-D"])
    def test_point_dimension_must_match_scene(self, points):
        scene = figure1_panel("a").source
        dim = len(points[0])
        with pytest.raises(ValueError, match=f"points have dim {dim}, the scene has dim 2"):
            bayes_labels_batch(scene, np.asarray(points))
        with pytest.raises(ValueError, match=f"points have dim {dim}, the scene has dim 2"):
            bayes_label(scene, points[0])

    def test_exact_ties_go_to_smallest_component(self):
        # Components 1 and 2 overlap; (0, 0) is exactly 1 from the surfaces
        # of components 0 and 1, and (2.25, 0) lies inside components 1 and 2.
        comps = (
            SceneComponent((-2.0, 0.0), 1.0, 1, 0.5),
            SceneComponent((2.0, 0.0), 1.0, 0, 0.25),
            SceneComponent((2.5, 0.0), 1.0, 2, 0.25),
        )
        scene = Scene(2, comps, 3)
        pts = np.asarray([[0.0, 0.0], [2.25, 0.0], [3.4, 0.0], [-2.0, 5.0]])
        singles = [bayes_label(scene, p) for p in pts]
        assert singles == [1, 0, 2, 1]
        assert singles == bayes_labels_batch(scene, pts).tolist()

    def test_monte_carlo_consistency(self):
        scene = two_ball_scene(flip=0.15)
        n = 100_000
        s = sample(scene, n, SeedSpec(6))
        truth = bayes_labels_batch(scene, s.points)
        mc = float((s.labels != truth).mean())
        se = math.sqrt(0.15 * 0.85 / n)
        assert abs(mc - bayes_risk(scene)) <= 3 * se

    def test_separation_self_check(self):
        geom = PanelGeometry(offset=1.0, radius=0.4)
        for panel in "abc":
            prob = figure1_panel(panel, geom)
            for scene in (prob.source, prob.target):
                # closed form from centers and radii
                expected = min(
                    math.dist(ci.center, cj.center) - ci.radius - cj.radius
                    for i, ci in enumerate(scene.components)
                    for cj in scene.components[i + 1 :]
                    if ci.label != cj.label
                )
                assert scene.margin() == pytest.approx(expected, abs=1e-9)
                assert scene.margin() > 0


class TestSceneValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Scene(1, (SceneComponent((0.0,), 1.0, 0, 0.7),), 1)

    def test_flip_below_half(self):
        with pytest.raises(ValueError):
            SceneComponent((0.0,), 1.0, 0, 1.0, flip_prob=0.5)

    @pytest.mark.parametrize("lambda_", [2.0, math.nan, math.inf])
    def test_cert_budget_contraction_constant(self, lambda_):
        with pytest.raises(ValueError, match="contraction constant"):
            CertBudget(lambda_=lambda_)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_cert_budget_contract_tol(self, tol):
        with pytest.raises(ValueError, match="contract_tol"):
            CertBudget(contract_tol=tol)

    def test_json_round_trip(self, tmp_path):
        scene = two_ball_scene(flip=0.05)
        back = Scene.from_json(scene.to_json())
        assert back.to_json() == scene.to_json()

    def test_problem_round_trip(self, tmp_path):
        prob = figure1_panel("b")
        path = tmp_path / "p.json"
        prob.save(path)
        back = ShiftProblem.load(path)
        assert back.to_json() == prob.to_json()


class TestCertify:
    def test_identity_problem_all_pass(self):
        scene = two_ball_scene()
        from sirmnn.featuremaps import FeatureFamily, identity_map

        prob = ShiftProblem(scene, scene, FeatureFamily((identity_map(2),)))
        report = certify(prob, 0, seed=SeedSpec(7))
        assert (report.preserves, report.contracts, report.unifies) == ("pass", "pass", "pass")

    @pytest.mark.parametrize(
        "panel,expected",
        [
            ("a", {0: ("fail", "fail"), 1: ("pass", "pass")}),
            ("b", {0: ("pass", "fail"), 1: ("pass", "pass")}),
            ("c", {0: ("pass", "pass"), 1: ("pass", "pass")}),
        ],
    )
    def test_panel_preserve_contract(self, panel, expected):
        prob = figure1_panel(panel)
        for idx, (want_p, want_c) in expected.items():
            r = certify(prob, idx, seed=SeedSpec(8))
            assert r.preserves == want_p
            assert r.contracts == want_c

    def test_panel_c_unify_split(self):
        prob = figure1_panel("c")
        r0 = certify(prob, 0, seed=SeedSpec(9))
        r1 = certify(prob, 1, seed=SeedSpec(9))
        assert r0.unifies == "fail"
        assert r0.worst_unify_violation is not None
        d, si, ti = r0.worst_unify_violation
        assert d < r0.rho_hat / 2
        assert r1.unifies == "pass"

    @pytest.mark.slow
    def test_ground_truth_passes_across_seeds(self):
        for panel in "abc":
            prob = figure1_panel(panel)
            for trial in range(20):
                for gt in prob.ground_truth:
                    r = certify(prob, gt, CertBudget(), SeedSpec(100 + trial))
                    assert r.passes("preserves", "contracts", "unifies")

    def test_report_json(self):
        prob = figure1_panel("a")
        r = certify(prob, 1, seed=SeedSpec(10))
        js = r.to_json()
        assert js["schema_version"] == 1
        assert js["preserves"] == "pass"


class TestTwinTargets:
    def test_same_map_identical_labels(self):
        prob = figure1_panel("c")
        t1, t2 = twin_targets(prob, 1, 1, seed=SeedSpec(11))
        assert [c.label for c in t1.components] == [c.label for c in t2.components]

    def test_panel_c_disagreement_mass(self):
        prob = figure1_panel("c")
        t1, t2 = twin_targets(prob, 0, 1, seed=SeedSpec(12))
        pts = sample_unlabeled(t1, 20_000, SeedSpec(13)).points
        la = bayes_labels_batch(t1, pts)
        lb = bayes_labels_batch(t2, pts)
        assert float((la != lb).mean()) >= 0.4

    def test_shared_point_stream(self):
        prob = figure1_panel("c")
        t1, t2 = twin_targets(prob, 0, 1, seed=SeedSpec(14))
        a = sample(t1, 40, SeedSpec(15))
        b = sample(t2, 40, SeedSpec(15))
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.labels, b.labels)

    def test_precondition_enforced(self):
        prob = figure1_panel("a")  # map 0 fails preserve on panel a
        with pytest.raises(ValueError, match="preserve"):
            twin_targets(prob, 0, 1, seed=SeedSpec(16))

    def test_twin_labels_are_deterministic(self):
        prob = figure1_panel("c")
        t1, _ = twin_targets(prob, 0, 1, seed=SeedSpec(17))
        assert all(c.flip_prob == 0.0 for c in t1.components)


class TestPerturbSource:
    def test_inserted_weights(self):
        prob = figure1_panel("b")
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(18))
        inserted = p1.source.components[len(prob.source.components) :]
        assert len(inserted) == 4
        assert [c.weight for c in inserted] == [0.02] * 4
        assert sum(c.weight for c in p1.source.components) == pytest.approx(1.0)
        # labels follow the (y1, y2, y2, y1) pattern
        labs = [c.label for c in inserted]
        assert labs[0] == labs[3] and labs[1] == labs[2] and labs[0] != labs[1]

    def test_same_map_errors(self):
        prob = figure1_panel("b")
        with pytest.raises(ValueError, match="distinct"):
            perturb_source(prob, 1, 1, eps_budget=0.08)

    def test_point_mass_targets_share_support(self):
        prob = figure1_panel("b")
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(19))
        (c1,) = p1.target.components
        (c2,) = p2.target.components
        assert c1.center == c2.center and c1.radius == 0.0
        assert c1.label != c2.label

    def test_both_maps_preserve_perturbed_source(self):
        prob = figure1_panel("b")
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(20))
        for mi in (0, 1):
            r = certify(p1, mi, seed=SeedSpec(21))
            assert r.preserves == "pass"

    def test_each_twin_realized_by_its_map(self):
        prob = figure1_panel("b")
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(22))
        r1 = certify(p1, p1.ground_truth[0], seed=SeedSpec(23))
        r2 = certify(p2, p2.ground_truth[0], seed=SeedSpec(23))
        assert r1.passes("preserves", "contracts", "unifies")
        assert r2.passes("preserves", "contracts", "unifies")

    def test_risks_on_twins_sum_to_one(self):
        prob = figure1_panel("b")
        p1, p2 = perturb_source(prob, 1, 0, eps_budget=0.08, seed=SeedSpec(24))
        train = sample(p1.source, 400, SeedSpec(25))
        clf = KnnClassifier(train, 5, prob.family[1])
        e1 = sample(p1.target, 200, SeedSpec(26))
        e2 = sample(p2.target, 200, SeedSpec(26))
        risk1 = empirical_risk(clf, e1).value
        risk2 = empirical_risk(clf, e2).value
        assert risk1 + risk2 == pytest.approx(1.0)

    def test_no_escape_errors(self):
        # identical source and target: no map lets the target escape
        scene = two_ball_scene()
        prob = ShiftProblem(scene, scene, cor_family(2, 1))
        with pytest.raises(ValueError, match="within the induced source support"):
            perturb_source(prob, 0, 1, eps_budget=0.08, seed=SeedSpec(27))

    @pytest.mark.parametrize("family, maps, seed, digests", [
        (cor_family(3, 2), (2, 0), 5, (
            "a647e213e21d9e3fbdb0ac41a8552b4fc4d7d9f37e54802a255e4c4c1e26c1b5",
            "053059b19561b64f21980c7293a29d1675e442e1939b677a3a6c614f713c067a",
        )),
        (FeatureFamily((
            linear_map([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]),
            linear_map([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.25]]),
        )), (0, 1), 6, (
            "2930bae15826fc9c9a7d43dd4bcc66e278a5bc459d0fa241c5a0d54dce5543b8",
            "358505f064c739e74752169ad98477742002063a9aaab8b96bf40ec74e1c2433",
        )),
    ], ids=["cor", "rank-deficient-linear"])
    def test_d3_outputs_pinned(self, family, maps, seed, digests):
        # D=3 two-ball shift whose first ball placements are rejected, so
        # the placement search, the null and row directions of each map and
        # every distance check shape the output, pinned here bit for bit.
        def ball(center, label):
            return SceneComponent(center, 0.4, label, 0.5)

        source = Scene(3, (ball((0.0, 1.0, 0.0), 0), ball((0.0, -1.0, 0.0), 1)), 2)
        target = Scene(3, (ball((1.0, 1.0, 0.0), 0), ball((1.0, -1.0, 0.0), 1)), 2)
        pair = perturb_source(ShiftProblem(source, target, family), *maps, eps_budget=0.08, seed=SeedSpec(seed))
        got = tuple(hashlib.sha256(json.dumps(p.to_json(), sort_keys=True).encode()).hexdigest() for p in pair)
        assert got == digests


def test_analysis_tools_load_numpy_only():
    """numpy is the only runtime dependency: the analysis tools pull in no scipy, sklearn or numba."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import sirmnn
        from sirmnn import CertBudget, ComparerQuery, SeedSpec, figure1_panel

        budget = CertBudget(200, 200)
        sirmnn.certify(figure1_panel("a"), 1, budget, SeedSpec(1))
        sirmnn.twin_targets(figure1_panel("c"), 0, 1, dense_n=500, seed=SeedSpec(2), budget=budget)
        sirmnn.perturb_source(figure1_panel("b"), 1, 0, 0.08, seed=SeedSpec(18))
        rng = np.random.default_rng(3)
        quads = [ComparerQuery(*(rng.random(2) for _ in range(4))) for _ in range(4)]
        sirmnn.shattering_search(sirmnn.cor_family(2, 1), quads, 1)
        print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sklearn", "numba")))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
