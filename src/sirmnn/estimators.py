"""Empirical loss and margin subroutines, plus plug-in support-distance estimates.

Margins are plain floats with math.inf as the "no disagreeing pair seen"
sentinel; every comparison treats it as larger than any real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, UnlabeledSet
from .distance import min_sq, pair_sq
from .featuremaps import FeatureMap
from .knn import KnnClassifier, _images, predict_batch

__all__ = [
    "LossEstimate",
    "source_margin",
    "target_margin",
    "empirical_risk",
    "beta_estimate",
]


@dataclass(frozen=True)
class LossEstimate:
    """Misclassification fraction over `count` evaluation points."""

    value: float
    count: int

    @property
    def errors(self) -> int:
        return round(self.value * self.count)


def source_margin(classifier: KnnClassifier, s_source: LabeledSet) -> float:
    """Smallest map-space distance between index-matched pairs predicted differently.

    `s_source` is halved in insertion order; pair i couples point i of the
    first half with point i of the second (a trailing element of an odd set
    is dropped). Both halves are predicted by `classifier` and measured
    through its map. Pairs on which the k-NN predictions agree contribute
    math.inf, so an all-agreeing sample yields math.inf.
    """
    if len(s_source) < 2:
        raise ValueError("margin sample must have at least 2 points")
    half = len(s_source) // 2
    pairs = s_source.slice(0, 2 * half)
    preds = predict_batch(classifier, pairs.unlabeled())
    z = _images(classifier.fmap, pairs.points)
    d = np.sqrt(pair_sq(z[:half], z[half:]))
    disagree = preds[:half] != preds[half:]
    if not np.any(disagree):
        return math.inf
    return float(d[disagree].min())


def target_margin(fmap: FeatureMap | None, s_margin_t: LabeledSet, u: UnlabeledSet) -> float:
    """Blocked max-min distance from early target points to private source blocks.

    With n source points and m target points, l = min(m, floor(sqrt(n)));
    the first l*l source points split into l consecutive blocks of size l,
    block i serving target point i alone. Returns the worst (max over i)
    nearest-block distance. Labels of the source sample are ignored.
    """
    n = len(s_margin_t)
    m = len(u)
    l = min(m, math.isqrt(n))
    if l == 0:
        raise ValueError("target_margin needs at least one target point and one source point")
    src = _images(fmap, s_margin_t.points[: l * l])
    tgt = _images(fmap, u.points[:l])
    sq = pair_sq(np.repeat(tgt, l, axis=0), src).reshape(l, l)
    return float(np.sqrt(sq.min(axis=1)).max())


def empirical_risk(classifier: KnnClassifier, eval_set: LabeledSet) -> LossEstimate:
    """Misclassification fraction of the classifier over `eval_set`."""
    if len(eval_set) == 0:
        raise ValueError("evaluation set must be non-empty")
    preds = predict_batch(classifier, eval_set.unlabeled())
    wrong = int(np.count_nonzero(preds != eval_set.labels))
    return LossEstimate(wrong / len(eval_set), len(eval_set))


def beta_estimate(fmap: FeatureMap | None, source_points: UnlabeledSet, target_points: UnlabeledSet) -> float:
    """Plug-in worst distance from the target sample to the source sample.

    max over target points of the min map-space distance to any source
    point; estimates how far target support strays from source support.
    """
    if len(source_points) == 0 or len(target_points) == 0:
        raise ValueError("both point sets must be non-empty")
    zs = _images(fmap, source_points.points)
    zt = _images(fmap, target_points.points)
    return float(np.sqrt(min_sq(zt, zs).max()))
