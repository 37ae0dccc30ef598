"""Map-selection learning rules, one per data-availability regime.

All three rules score every map in the family, record the full per-map
diagnostics table, and break score ties toward the smallest family index,
so identical inputs always produce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SCHEMA_VERSION, LabeledSet, UnlabeledSet, split_fractions
from .estimators import empirical_risk, source_margin, target_margin
from .featuremaps import FeatureFamily
from .knn import KnnClassifier, KSchedule, k_of_n

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
        if self.epsilon is not None and (not math.isfinite(self.epsilon) or self.epsilon <= 0):
            raise ValueError("epsilon must be finite and positive")
        if not math.isfinite(self.lambda_) or self.lambda_ <= 2:
            raise ValueError("lambda_ must be finite and exceed 2")
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
            "schema_version": SCHEMA_VERSION,
            "chosen_map_index": self.chosen_map_index,
            "fallback": self.fallback,
            "epsilon": self.epsilon,
            "k": self.classifier.k,
            "train_size": len(self.classifier.train),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def _admit_and_choose(
    losses: list[float], scores: list[float], eps: float, mode: str
) -> tuple[int, list[bool], bool]:
    """(chosen index, admission mask, fallback) of a source-side rule.

    Maps are admitted on held-out loss and the admitted map with the largest
    score wins, the smallest index on ties. If admission rejects every map,
    the lowest-loss map (smallest index on ties) is chosen as a fallback.
    """
    if mode == "absolute":
        admitted = [v < eps for v in losses]
    else:
        best = min(losses)
        admitted = [v <= best + eps for v in losses]
    eligible = [i for i, ok in enumerate(admitted) if ok]
    if not eligible:
        return losses.index(min(losses)), admitted, True
    return max(eligible, key=scores.__getitem__), admitted, False


# Smallest source samples the split rules accept.
SOURCE_ONLY_MIN_N = 8
UNLABELED_MIN_N = 10


def direct_generalize_nn(
    s: LabeledSet, family: FeatureFamily, cfg: LearnerConfig | None = None
) -> LearnerOutput:
    """Source-only rule: admit low-loss maps, keep the widest-margin one.

    The sample is quartered in insertion order into train / loss / margin /
    final parts. Each map's k-NN classifier on the train quarter is built
    once and scored twice: its error rate on the loss quarter and its
    paired margin on the margin quarter. Maps are admitted on that loss, the
    admitted map with the largest observed margin wins, and the returned
    classifier is k-NN through the winner trained on the final quarter. If
    admission rejects every map, the lowest-loss map is used and the output
    is flagged as a fallback.
    """
    cfg = cfg or LearnerConfig()
    if len(s) < SOURCE_ONLY_MIN_N:
        raise ValueError(f"need at least {SOURCE_ONLY_MIN_N} samples for four non-empty quarters")
    s_tr, s_loss, s_margin, s_final = split_fractions(s, (0.25, 0.25, 0.25, 0.25))
    eps = cfg.epsilon_for(len(s))
    k_tr = k_of_n(cfg.k_schedule, len(s_tr))

    clfs = [KnnClassifier(s_tr, k_tr, m) for m in family.maps]
    losses = [empirical_risk(c, s_loss).value for c in clfs]
    margins = [source_margin(c, s_margin) for c in clfs]
    chosen, admitted, fallback = _admit_and_choose(losses, margins, eps, cfg.admission_mode)

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
    margin / target-margin / final). Each map's k-NN classifier on the
    train part is built once; admission works on its loss as in the
    source-only rule, and among admitted maps the winner maximizes
    source_margin - lambda * target_margin, so an infinite observed margin
    with a finite contraction estimate dominates every finite score. The
    winner's scored classifier, trained on the first (train) part, is
    returned. Target labels are never read.
    """
    cfg = cfg or LearnerConfig()
    if len(s) < UNLABELED_MIN_N:
        raise ValueError(f"need at least {UNLABELED_MIN_N} samples for five non-empty fifths")
    if len(u) == 0:
        raise ValueError("need at least one unlabeled target point")
    s_tr, s_loss, s_margin, s_margin_t, _s_final = split_fractions(s, (0.2,) * 5)
    eps = cfg.epsilon_for(len(s))
    k_tr = k_of_n(cfg.k_schedule, len(s_tr))

    clfs = [KnnClassifier(s_tr, k_tr, m) for m in family.maps]
    losses = [empirical_risk(c, s_loss).value for c in clfs]
    rho_s = [source_margin(c, s_margin) for c in clfs]
    rho_t = [target_margin(m, s_margin_t, u) for m in family.maps]
    scores = [rs - cfg.lambda_ * rt for rs, rt in zip(rho_s, rho_t)]
    chosen, admitted, fallback = _admit_and_choose(losses, scores, eps, cfg.admission_mode)

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
    return LearnerOutput(chosen, clfs[chosen], diagnostics, fallback=fallback, epsilon=eps)


def feature_validate(
    s: LabeledSet, t: LabeledSet, family: FeatureFamily, k: int
) -> LearnerOutput:
    """Labeled-target rule: pick the map whose source k-NN best fits the target.

    For each map the empirical risk on `t` of k-NN through that map trained
    on all of `s` is computed; the lowest-risk map (smallest index on ties)
    wins and its scored classifier, trained on all of `s`, is returned.
    """
    if len(s) == 0 or len(t) == 0:
        raise ValueError("source and target sets must be non-empty")
    clfs = [KnnClassifier(s, k, m) for m in family.maps]
    losses = [empirical_risk(c, t).value for c in clfs]
    chosen = losses.index(min(losses))
    diagnostics = tuple(
        MapDiagnostics(i, target_loss=losses[i], admitted=True) for i in range(len(family))
    )
    return LearnerOutput(chosen, clfs[chosen], diagnostics, fallback=False, epsilon=None)


def target_sample_budget(dd_upper: float, n: int, epsilon: float, delta: float, c: float) -> int:
    """Planning heuristic for how many labeled target points to budget.

    ceil(c * (dd_upper * ln(n + dd_upper) + ln(1/delta)) / epsilon^2); the
    leading constant is caller-supplied.
    """
    if dd_upper <= 0 or n < 1 or not 0 < epsilon < 1 or not 0 < delta < 1 or c <= 0:
        raise ValueError("arguments out of range")
    return math.ceil(c * (dd_upper * math.log(n + dd_upper) + math.log(1.0 / delta)) / epsilon**2)
