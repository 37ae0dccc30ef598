"""Map-selection learning rules, one per data-availability regime.

All three rules score every map in the family, record the full per-map
diagnostics table, and break score ties toward the smallest family index,
so identical inputs always produce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import LabeledSet, UnlabeledSet, split_fractions
from .estimators import source_loss, source_margin, target_margin
from .featuremaps import FeatureFamily
from .knn import KnnClassifier, KSchedule, k_of_n, predict_batch

__all__ = [
    "LearnerConfig",
    "MapDiagnostics",
    "LearnerOutput",
    "direct_generalize_nn",
    "presrv_contract_nn",
    "feature_validate",
    "target_sample_budget",
]


@dataclass(frozen=True)
class LearnerConfig:
    """Shared learner knobs.

    epsilon None means the sample-size default n**(-1/3). admission_mode
    "absolute" admits maps with loss < epsilon; "relative" (the default)
    admits maps within epsilon of the best observed loss, which tolerates
    irreducible noise that the absolute rule cannot.
    """

    epsilon: float | None = None
    lambda_: float = 4.0
    k_schedule: KSchedule = KSchedule()
    admission_mode: str = "relative"

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lambda_ <= 2:
            raise ValueError("lambda_ must exceed 2")
        if self.admission_mode not in ("absolute", "relative"):
            raise ValueError(f"unknown admission mode {self.admission_mode!r}")

    def epsilon_for(self, n: int) -> float:
        return self.epsilon if self.epsilon is not None else n ** (-1.0 / 3.0)


@dataclass(frozen=True)
class MapDiagnostics:
    """Scores recorded for one candidate map; None where not applicable."""

    map_index: int
    source_loss: float | None = None
    source_margin: float | None = None
    target_margin: float | None = None
    target_loss: float | None = None
    admitted: bool | None = None
    score: float | None = None

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return v

        return {
            "map_index": self.map_index,
            "source_loss": enc(self.source_loss),
            "source_margin": enc(self.source_margin),
            "target_margin": enc(self.target_margin),
            "target_loss": enc(self.target_loss),
            "admitted": self.admitted,
            "score": enc(self.score),
        }


@dataclass(frozen=True, eq=False)
class LearnerOutput:
    """Chosen map, its trained classifier, and the per-map diagnostics."""

    chosen_map_index: int
    classifier: KnnClassifier
    diagnostics: tuple[MapDiagnostics, ...]
    fallback: bool = False
    epsilon: float | None = None

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "chosen_map_index": self.chosen_map_index,
            "fallback": self.fallback,
            "epsilon": self.epsilon,
            "k": self.classifier.k,
            "train_size": len(self.classifier.train),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def _admitted_mask(losses: list[float], eps: float, mode: str) -> list[bool]:
    if mode == "absolute":
        return [v < eps for v in losses]
    best = min(losses)
    return [v <= best + eps for v in losses]


def _argmax_ties_low(values: list[float], eligible: list[bool]) -> int | None:
    best_i = None
    for i, (v, ok) in enumerate(zip(values, eligible)):
        if not ok:
            continue
        if best_i is None or v > values[best_i]:
            best_i = i
    return best_i


# Smallest source samples the split rules accept.
SOURCE_ONLY_MIN_N = 8
UNLABELED_MIN_N = 10


def direct_generalize_nn(
    s: LabeledSet, family: FeatureFamily, cfg: LearnerConfig | None = None
) -> LearnerOutput:
    """Source-only rule: admit low-loss maps, keep the widest-margin one.

    The sample is quartered in insertion order into train / loss / margin /
    final parts. Maps are admitted on their held-out loss, the admitted map
    with the largest observed margin wins, and the returned classifier is
    k-NN through the winner trained on the final quarter. If admission
    rejects every map, the lowest-loss map is used and the output is
    flagged as a fallback.
    """
    cfg = cfg or LearnerConfig()
    if len(s) < SOURCE_ONLY_MIN_N:
        raise ValueError(f"need at least {SOURCE_ONLY_MIN_N} samples for four non-empty quarters")
    s_tr, s_loss, s_margin, s_final = split_fractions(s, (0.25, 0.25, 0.25, 0.25))
    eps = cfg.epsilon_for(len(s))
    k_tr = k_of_n(cfg.k_schedule, len(s_tr))

    losses = [source_loss(m, s_tr, s_loss, k_tr).value for m in family.maps]
    margins = [source_margin(m, s_tr, s_margin, k_tr) for m in family.maps]
    admitted = _admitted_mask(losses, eps, cfg.admission_mode)

    chosen = _argmax_ties_low(margins, admitted)
    fallback = chosen is None
    if fallback:
        chosen = min(range(len(family)), key=lambda i: (losses[i], i))

    diagnostics = tuple(
        MapDiagnostics(i, source_loss=losses[i], source_margin=margins[i], admitted=admitted[i])
        for i in range(len(family))
    )
    clf = KnnClassifier(s_final, k_of_n(cfg.k_schedule, len(s_final)), family[chosen])
    return LearnerOutput(chosen, clf, diagnostics, fallback=fallback, epsilon=eps)


def presrv_contract_nn(
    s: LabeledSet,
    u: UnlabeledSet,
    family: FeatureFamily,
    cfg: LearnerConfig | None = None,
) -> LearnerOutput:
    """Source + unlabeled-target rule: widest margin after a contraction penalty.

    The sample is split into five parts in insertion order (train / loss /
    margin / target-margin / final). Admission works as in the source-only
    rule; among admitted maps the winner maximizes
    source_margin - lambda * target_margin, so an infinite observed margin
    with a finite contraction estimate dominates every finite score. The
    returned classifier is trained on the first (train) part. Target labels
    are never read.
    """
    cfg = cfg or LearnerConfig()
    if len(s) < UNLABELED_MIN_N:
        raise ValueError(f"need at least {UNLABELED_MIN_N} samples for five non-empty fifths")
    if len(u) == 0:
        raise ValueError("need at least one unlabeled target point")
    s_tr, s_loss, s_margin, s_margin_t, _s_final = split_fractions(s, (0.2,) * 5)
    eps = cfg.epsilon_for(len(s))
    k_tr = k_of_n(cfg.k_schedule, len(s_tr))

    losses = [source_loss(m, s_tr, s_loss, k_tr).value for m in family.maps]
    rho_s = [source_margin(m, s_tr, s_margin, k_tr) for m in family.maps]
    rho_t = [target_margin(m, s_margin_t, u) for m in family.maps]
    scores = [rs - cfg.lambda_ * rt for rs, rt in zip(rho_s, rho_t)]
    admitted = _admitted_mask(losses, eps, cfg.admission_mode)

    chosen = _argmax_ties_low(scores, admitted)
    fallback = chosen is None
    if fallback:
        chosen = min(range(len(family)), key=lambda i: (losses[i], i))

    diagnostics = tuple(
        MapDiagnostics(
            i,
            source_loss=losses[i],
            source_margin=rho_s[i],
            target_margin=rho_t[i],
            admitted=admitted[i],
            score=scores[i],
        )
        for i in range(len(family))
    )
    clf = KnnClassifier(s_tr, k_tr, family[chosen])
    return LearnerOutput(chosen, clf, diagnostics, fallback=fallback, epsilon=eps)


def feature_validate(
    s: LabeledSet, t: LabeledSet, family: FeatureFamily, k: int
) -> LearnerOutput:
    """Labeled-target rule: pick the map whose source k-NN best fits the target.

    For each map the empirical risk on `t` of k-NN through that map trained
    on all of `s` is computed; the lowest-risk map (smallest index on ties)
    wins and its classifier, trained on all of `s`, is returned.
    """
    if len(s) == 0 or len(t) == 0:
        raise ValueError("source and target sets must be non-empty")
    losses = []
    for m in family.maps:
        clf = KnnClassifier(s, k, m)
        preds = predict_batch(clf, t.unlabeled())
        losses.append(float((preds != t.labels).mean()))
    chosen = min(range(len(family)), key=lambda i: (losses[i], i))
    diagnostics = tuple(
        MapDiagnostics(i, target_loss=losses[i], admitted=True) for i in range(len(family))
    )
    clf = KnnClassifier(s, k, family[chosen])
    return LearnerOutput(chosen, clf, diagnostics, fallback=False, epsilon=None)


def target_sample_budget(dd_upper: float, n: int, epsilon: float, delta: float, c: float) -> int:
    """Planning heuristic for how many labeled target points to budget.

    ceil(c * (dd_upper * ln(n + dd_upper) + ln(1/delta)) / epsilon^2); the
    leading constant is caller-supplied.
    """
    if dd_upper <= 0 or n < 1 or not 0 < epsilon < 1 or not 0 < delta < 1 or c <= 0:
        raise ValueError("arguments out of range")
    return math.ceil(c * (dd_upper * math.log(n + dd_upper) + math.log(1.0 / delta)) / epsilon**2)
