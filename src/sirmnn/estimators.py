"""Empirical loss and margin subroutines, plus plug-in support-distance estimates.

Margins are plain floats with math.inf as the "no disagreeing pair seen"
sentinel; every comparison treats it as larger than any real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, UnlabeledSet
from .distance import min_sq
from .featuremaps import FeatureMap
from .knn import KnnClassifier, _images, predict_batch

__all__ = [
    "LossEstimate",
    "source_loss",
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


def source_loss(fmap: FeatureMap | None, s_tr: LabeledSet, s_loss: LabeledSet, k: int) -> LossEstimate:
    """Fraction of `s_loss` misclassified by k-NN on `s_tr` through the map."""
    if len(s_loss) == 0:
        raise ValueError("loss evaluation set must be non-empty")
    clf = KnnClassifier(s_tr, k, fmap)
    preds = predict_batch(clf, s_loss.unlabeled())
    wrong = int(np.count_nonzero(preds != s_loss.labels))
    return LossEstimate(wrong / len(s_loss), len(s_loss))


def source_margin(fmap: FeatureMap | None, s_tr: LabeledSet, s_source: LabeledSet, k: int) -> float:
    """Smallest map-space distance between index-matched pairs predicted differently.

    `s_source` is halved in insertion order; pair i couples point i of the
    first half with point i of the second (a trailing element of an odd set
    is dropped). Pairs on which the k-NN predictions agree contribute
    math.inf, so an all-agreeing sample yields math.inf.
    """
    if len(s_source) < 2:
        raise ValueError("margin sample must have at least 2 points")
    half = len(s_source) // 2
    part_a = s_source.slice(0, half)
    part_b = s_source.slice(half, 2 * half)
    clf = KnnClassifier(s_tr, k, fmap)
    pred_a = predict_batch(clf, part_a.unlabeled())
    pred_b = predict_batch(clf, part_b.unlabeled())
    za = _images(fmap, part_a.points)
    zb = _images(fmap, part_b.points)
    d = np.sqrt(np.einsum("ij,ij->i", za - zb, za - zb))
    disagree = pred_a != pred_b
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
    blocks = src.reshape(l, l, src.shape[1])
    diff = blocks - tgt[:, None, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
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
