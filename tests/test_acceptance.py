"""Acceptance suite: one test per criterion, one pass/fail line each.

Seeds, tolerances, and runtime envelopes are pinned here; run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import csv
import json
import math
import time
from collections import Counter
from fractions import Fraction
from statistics import median

import numpy as np
import pytest

from sirmnn.cli import main as cli_main
from sirmnn.core import LabeledSet, SeedSpec, UnlabeledSet
from sirmnn.estimators import empirical_risk, source_margin
from sirmnn.featuremaps import (
    ComparerQuery,
    apply,
    apply_batch,
    comparer,
    comparer_linear_form,
    coordinate_map,
    cor_family,
    identity_map,
    linear_map,
    shattering_search,
)
from sirmnn.knn import KnnClassifier, KSchedule, k_nearest, k_of_n, predict, predict_batch
from sirmnn.learners import LearnerConfig, direct_generalize_nn, feature_validate, presrv_contract_nn
from sirmnn.scenarios import (
    PanelGeometry,
    bayes_labels_batch,
    certify,
    figure1_panel,
    perturb_source,
    sample,
    sample_unlabeled,
    twin_targets,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _labeled(points, labels, label_count):
    return LabeledSet(np.asarray(points, dtype=np.float64), np.asarray(labels, dtype=np.int64), label_count)


# --------------------------------------------------------------------------
# criterion 1: exact-oracle equivalence for composed k-NN


def _oracle_neighbors(train_z: np.ndarray, qz: np.ndarray, k: int) -> list[int]:
    keyed = []
    for i in range(train_z.shape[0]):
        diff = train_z[i] - qz
        keyed.append((float((diff * diff).sum()), i))
    keyed.sort()
    return [i for _, i in keyed[:k]]


def _oracle_predict(train: LabeledSet, train_z, qz, k: int) -> int:
    idx = _oracle_neighbors(train_z, qz, k)
    counts = Counter(int(train.labels[i]) for i in idx)
    top = max(counts.values())
    return min(lab for lab, c in counts.items() if c == top)


def _random_map(rng, dim):
    kind = rng.integers(0, 4)
    if kind == 0:
        return None
    if kind == 1:
        return identity_map(dim)
    if kind == 2:
        k = int(rng.integers(1, dim + 1))
        coords = sorted(rng.choice(dim, size=k, replace=False).tolist())
        return coordinate_map(dim, coords)
    k = int(rng.integers(1, dim + 1))
    # dyadic entries keep image arithmetic exact on lattice points
    entries = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(dim, k))
    return linear_map(entries)


def test_criterion_01_exact_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_01)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 7) + 1))
        label_count = int(rng.integers(2, 5))
        lattice = rng.random() < 0.5
        if lattice:
            pts = rng.integers(0, 5, size=(n, dim)).astype(float)
            queries = rng.integers(0, 5, size=(20, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim))
            queries = rng.normal(size=(20, dim))
        train = _labeled(pts, rng.integers(0, label_count, n), label_count)
        fmap = _random_map(rng, dim)
        train_z = pts if fmap is None else apply_batch(fmap, pts)
        clf = KnnClassifier(train, k, fmap)
        preds = predict_batch(clf, UnlabeledSet(queries))
        queries_z = queries if fmap is None else apply_batch(fmap, queries)
        for qi in range(queries.shape[0]):
            want = _oracle_predict(train, train_z, queries_z[qi], k)
            if int(preds[qi]) != want:
                mismatches += 1
            got_nn = k_nearest(train, queries[qi], k, fmap)
            if got_nn != _oracle_neighbors(train_z, queries_z[qi], k):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1, "exact-oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}/200x20, runtime={elapsed:.2f}s (limit 10s)",
    )


# --------------------------------------------------------------------------
# criterion 2: tie-break semantics on a crafted equidistant suite


def _fraction_oracle(train_pts, q, k):
    """Exact-rational re-ranking: distance ties are detected exactly."""
    keyed = []
    for i, p in enumerate(train_pts):
        sq = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))
        keyed.append((sq, i))
    keyed.sort()
    return [i for _, i in keyed[:k]]


def test_criterion_02_tie_break_semantics():
    ring8 = [(3.0, 4.0), (4.0, 3.0), (-3.0, 4.0), (4.0, -3.0), (-4.0, 3.0), (3.0, -4.0), (-4.0, -3.0), (-3.0, -4.0)]
    inner4 = [(0.0, 2.0), (2.0, 0.0), (0.0, -2.0), (-2.0, 0.0)]
    rng = np.random.default_rng(2024_02)
    cases = 0
    failures = 0
    while cases < 50:
        perm = rng.permutation(len(ring8) + len(inner4))
        pts = [(ring8 + inner4)[i] for i in perm]
        labels = rng.integers(0, 2, len(pts))
        train = _labeled(pts, labels, 2)
        q = (0.0, 0.0)
        k = int(rng.integers(1, 8))
        got = k_nearest(train, q, k)
        want = _fraction_oracle(pts, q, k)
        # independent restatement of the rule: all inner points tie at 4,
        # all ring points tie at 25; earlier insertion wins inside a tier.
        inner_idx = [i for i, p in enumerate(pts) if p in inner4]
        ring_idx = [i for i, p in enumerate(pts) if p in ring8]
        full_order = inner_idx + ring_idx
        if got != want or got != full_order[:k]:
            failures += 1
        # label-vote tie goes to the smallest label id
        clf = KnnClassifier(train, 2, None)
        votes = Counter(int(labels[i]) for i in full_order[:2])
        top = max(votes.values())
        if predict(clf, q) != min(l for l, c in votes.items() if c == top):
            failures += 1
        cases += 1
    _report(2, "tie-break semantics", failures == 0, f"failures={failures}/50 crafted cases")


# --------------------------------------------------------------------------
# criterion 3: comparer linear-form identity


def test_criterion_03_comparer_linear_form():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_03)
    disagreements = 0
    decided = 0
    for _ in range(10_000):
        a = rng.uniform(-1.0, 1.0, size=(3, 2))
        pts = rng.normal(size=(4, 3))
        gram = a @ a.T
        u = pts[0] - pts[1]
        v = pts[2] - pts[3]
        inner = float(u @ gram @ u - v @ gram @ v)
        if abs(inner) <= 1e-9:
            continue
        decided += 1
        fmap = linear_map(a)
        q = ComparerQuery(*pts)
        if comparer(fmap, q) != comparer_linear_form(fmap, q):
            disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        3, "comparer linear-form identity",
        disagreements == 0 and elapsed < 5.0,
        f"disagreements={disagreements}/{decided} decided cases, runtime={elapsed:.2f}s (limit 5s)",
    )


# --------------------------------------------------------------------------
# criterion 4: shattering never exceeds the Cor bound


def test_criterion_04_distance_dimension_consistency():
    start = time.perf_counter()
    family = cor_family(4, 2)
    bound = 4  # 2 * log2(4)
    offenders = 0
    for trial in range(200):
        rng = SeedSpec(2024_04, trial).rng()
        quads = [ComparerQuery(*rng.random((4, 4))) for _ in range(10)]
        for size in (bound + 1, bound + 2):
            verdict = shattering_search(family, quads, size, max_candidates=500_000)
            if verdict.status != "none":
                offenders += 1
    elapsed = time.perf_counter() - start
    _report(
        4, "distance-dimension consistency",
        offenders == 0 and elapsed < 60.0,
        f"sets exceeding bound={offenders} over 200 pools, runtime={elapsed:.2f}s (limit 60s)",
    )


# --------------------------------------------------------------------------
# criterion 5: desk-scale convergence with the realizing map given


def test_criterion_05_statistical_irm_desk_scale():
    start = time.perf_counter()
    geom = PanelGeometry(flip_prob=0.05)
    prob = figure1_panel("a", geom)
    phi_star = prob.family[1]
    n = 4000
    k = k_of_n(KSchedule(), n)
    risks = []
    for trial in range(20):
        seed = SeedSpec(2024_05, trial)
        train = sample(prob.source, n, seed.substream(0))
        clf = KnnClassifier(train, k, phi_star)
        held_out = sample(prob.target, 4000, seed.substream(1))
        risks.append(empirical_risk(clf, held_out).value)
    elapsed = time.perf_counter() - start
    med = median(risks)
    bound = 0.05 + 0.03  # R_t* + tolerance
    _report(
        5, "statistical IRM at desk scale",
        med <= bound and elapsed < 120.0,
        f"median target risk={med:.4f} (bound {bound}), k={k}, runtime={elapsed:.1f}s (limit 120s)",
    )


# --------------------------------------------------------------------------
# criteria 6-8: the three regimes


def test_criterion_06_regime1_source_only():
    prob = figure1_panel("a")
    r_t_star = 0.0
    wins = 0
    risks = []
    for trial in range(50):
        seed = SeedSpec(2024_06, trial)
        s = sample(prob.source, 2000, seed.substream(0))
        out = direct_generalize_nn(s, prob.family, LearnerConfig(admission_mode="relative"))
        wins += out.chosen_map_index == 1
        eval_t = sample(prob.target, 2000, seed.substream(1))
        risks.append(empirical_risk(out.classifier, eval_t).value)
    med = median(risks)
    _report(
        6, "regime 1 source-only",
        wins >= 45 and med <= r_t_star + 0.05,
        f"selected phi_y {wins}/50 (need 45), median target risk={med:.4f} (bound {r_t_star + 0.05})",
    )


def test_criterion_07_regime2_unlabeled():
    prob = figure1_panel("b")
    r_t_star = 0.0
    wins = 0
    risks = []
    cfg = LearnerConfig(lambda_=4.0)
    for trial in range(50):
        seed = SeedSpec(2024_07, trial)
        s = sample(prob.source, 2000, seed.substream(0))
        u = sample_unlabeled(prob.target, 50, seed.substream(1))
        out = presrv_contract_nn(s, u, prob.family, cfg)
        wins += out.chosen_map_index == 1
        eval_t = sample(prob.target, 2000, seed.substream(2))
        risks.append(empirical_risk(out.classifier, eval_t).value)
    med = median(risks)
    _report(
        7, "regime 2 unlabeled target",
        wins >= 45 and med <= r_t_star + 0.05,
        f"selected phi_y {wins}/50 (need 45), median target risk={med:.4f} (bound {r_t_star + 0.05})",
    )


def test_criterion_08_regime3_labeled_validation():
    prob = figure1_panel("c")
    wins = 0
    for trial in range(50):
        seed = SeedSpec(2024_08, trial)
        s = sample(prob.source, 2000, seed.substream(0))
        t = sample(prob.target, 25, seed.substream(1))
        out = feature_validate(s, t, prob.family, k=k_of_n(KSchedule(), len(s)))
        wins += out.chosen_map_index == 1
    _report(
        8, "regime 3 labeled target (25 << 2000)",
        wins >= 45,
        f"selected unifying map {wins}/50 (need 45)",
    )


# --------------------------------------------------------------------------
# criterion 9: lower-bound witnesses


def test_criterion_09_lower_bound_witnesses():
    # (i) twins: label-blindness and forced risk
    prob = figure1_panel("c")
    t1, t2 = twin_targets(prob, 0, 1, seed=SeedSpec(2024_09))
    blind_ok = True
    risk_ok = True
    for trial in range(50):
        seed = SeedSpec(2024_09, trial)
        s = sample(prob.source, 2000, seed.substream(0))
        u1 = sample_unlabeled(t1, 50, seed.substream(1))
        u2 = sample_unlabeled(t2, 50, seed.substream(1))
        o1 = presrv_contract_nn(s, u1, prob.family)
        o2 = presrv_contract_nn(s, u2, prob.family)
        if o1.chosen_map_index != o2.chosen_map_index:
            blind_ok = False
        e1 = sample(t1, 1000, seed.substream(2))
        e2 = sample(t2, 1000, seed.substream(2))
        worst = max(empirical_risk(o1.classifier, e1).value, empirical_risk(o1.classifier, e2).value)
        if worst < 0.4:
            risk_ok = False

    # (ii) mass-surgery instance: both maps preserve, targets force disagreement
    probb = figure1_panel("b")
    p1, p2 = perturb_source(probb, 1, 0, eps_budget=0.08, seed=SeedSpec(2024_09, 99))
    preserve_ok = all(
        certify(p1, mi, seed=SeedSpec(2024_09, 100 + mi)).preserves == "pass" for mi in (0, 1)
    )
    x = np.asarray(p1.target.components[0].center)
    labels_differ = bayes_labels_batch(p1.target, x.reshape(1, -1))[0] != bayes_labels_batch(
        p2.target, x.reshape(1, -1)
    )[0]
    train = sample(p1.source, 1000, SeedSpec(2024_09, 101))
    force_ok = True
    for mi in (0, 1):
        clf = KnnClassifier(train, 9, probb.family[mi])
        e1 = sample(p1.target, 500, SeedSpec(2024_09, 102))
        e2 = sample(p2.target, 500, SeedSpec(2024_09, 102))
        if abs(empirical_risk(clf, e1).value + empirical_risk(clf, e2).value - 1.0) > 1e-12:
            force_ok = False
    ok = blind_ok and risk_ok and preserve_ok and bool(labels_differ) and force_ok
    _report(
        9, "lower-bound witnesses",
        ok,
        f"twin blindness={blind_ok}, twin risk>=0.4={risk_ok}, "
        f"both preserve perturbed source={preserve_ok}, point-mass disagreement forced={force_ok}",
    )


# --------------------------------------------------------------------------
# criterion 10: estimator calibration


def test_criterion_10_estimator_calibration():
    # (a) Hoeffding envelope for the held-out source loss
    prob = figure1_panel("a", PanelGeometry(flip_prob=0.1))
    n_loss = 400
    envelope = 3 * math.sqrt(math.log(2 / 0.01) / (2 * n_loss))
    inside = 0
    for trial in range(200):
        seed = SeedSpec(2024_10, trial)
        s_tr = sample(prob.source, 200, seed.substream(0))
        s_loss = sample(prob.source, n_loss, seed.substream(1))
        clf = KnnClassifier(s_tr, 9, prob.family[1])
        est = empirical_risk(clf, s_loss)
        proxy = sample(prob.source, 20_000, seed.substream(2))
        true_risk = empirical_risk(clf, proxy).value
        if abs(est.value - true_risk) <= envelope:
            inside += 1

    # (b) observed margin never undercuts the true separation
    clean = figure1_panel("a")
    rho = clean.source.margin()
    margin_ok = 0
    for trial in range(100):
        seed = SeedSpec(2024_10, 1000 + trial)
        s_tr = sample(clean.source, 600, seed.substream(0))
        s_src = sample(clean.source, 200, seed.substream(1))
        if source_margin(KnnClassifier(s_tr, 1), s_src) >= rho:
            margin_ok += 1
    _report(
        10, "estimator calibration",
        inside >= 198 and margin_ok == 100,
        f"loss inside envelope {inside}/200 (need 198), margin >= rho {margin_ok}/100 (need 100)",
    )


# --------------------------------------------------------------------------
# criterion 11: sweep determinism across worker counts


def test_criterion_11_sweep_determinism(tmp_path, monkeypatch):
    def run(tag, threads):
        monkeypatch.setenv("SIRM_THREADS", str(threads))
        rc = cli_main([
            "sweep", "--panel", "a", "--regime", "source-only",
            "--grid-n", "250,1000", "--trials", "4", "--eval-n", "500", "--seed", "17",
            "--out-csv", str(tmp_path / f"{tag}.csv"),
            "--out-json", str(tmp_path / f"{tag}.json"),
        ])
        assert rc == 0
        return (tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.json").read_bytes()

    csv1a, json1a = run("t1a", 1)
    csv1b, json1b = run("t1b", 1)
    csv8, json8 = run("t8", 8)
    ok = csv1a == csv1b == csv8 and json1a == json1b == json8
    _report(
        11, "sweep determinism",
        ok,
        f"csv bytes equal={csv1a == csv8}, summary bytes equal={json1a == json8} across 1 and 8 workers",
    )
