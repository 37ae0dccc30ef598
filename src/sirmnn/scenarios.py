"""Synthetic scenes with closed-form oracles, certification, and hard instances.

A Scene is a weighted union of uniform balls, each carrying a class label
and a label-flip probability. That family keeps everything analytically
tractable: the Bayes classifier is the (unflipped) component label, the
Bayes risk is the flip mass, and the separation margin is a closed form of
centers and radii.

Certification of the three map properties (preserve / contract / unify) is
a Monte-Carlo decision procedure with explicit tolerances and an
"inconclusive" verdict; the properties quantify over supports and cannot
be decided exactly from samples.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SCHEMA_VERSION, LabeledSet, SeedSpec, UnlabeledSet, _check_schema, write_json
from .distance import min_pair_sq, min_sq, min_sq_by_label, pair_sq
from .featuremaps import FeatureFamily, FeatureMap, apply_batch, cor_family
from .knn import family_votes

__all__ = [
    "SceneComponent",
    "Scene",
    "ShiftProblem",
    "PanelGeometry",
    "CertBudget",
    "CertReport",
    "sample",
    "sample_unlabeled",
    "bayes_label",
    "bayes_risk",
    "figure1_panel",
    "certify",
    "twin_targets",
    "perturb_source",
]


@dataclass(frozen=True)
class SceneComponent:
    """One uniform ball: center, radius, class label, mixture weight, flip noise."""

    center: tuple[float, ...]
    radius: float
    label: int
    weight: float
    flip_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("component center must be finite")
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ValueError("component radius must be finite and non-negative")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ValueError("component weight must be finite and positive")
        if not 0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")


@dataclass(frozen=True, eq=False)
class Scene:
    """Mixture of labeled uniform balls with label-flip noise.

    Sampling picks a component by weight, draws a uniform point in its
    ball, and emits the component label, flipped to a uniform other label
    with the component's flip probability, so a scene of one label takes
    no flip noise. A zero radius makes the component a point mass.
    """

    dim: int
    components: tuple[SceneComponent, ...]
    label_count: int

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("scene needs at least one component")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for c in comps:
            if len(c.center) != self.dim:
                raise ValueError("component center dimension mismatch")
            if not 0 <= c.label < self.label_count:
                raise ValueError("component label out of range")
            if c.flip_prob > 0 and self.label_count < 2:
                raise ValueError("flip_prob needs at least two labels to flip between")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)

    def centers(self) -> np.ndarray:
        return np.asarray([c.center for c in self.components], dtype=np.float64)

    def margin(self) -> float:
        """Closed-form separation between differently-labeled balls.

        min over label-crossing component pairs of (center distance minus
        radii); math.inf when all components share one label.
        """
        i, j = np.triu_indices(len(self.components), 1)
        labels = np.asarray([c.label for c in self.components])
        radii = np.asarray([c.radius for c in self.components])
        centers = self.centers()
        cross = labels[i] != labels[j]
        gaps = _distances(centers, centers)[i, j] - radii[i] - radii[j]
        return float(gaps[cross].min()) if cross.any() else math.inf

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "dim": self.dim,
            "label_count": self.label_count,
            "components": [
                {
                    "center": list(c.center),
                    "radius": c.radius,
                    "label": c.label,
                    "weight": c.weight,
                    "flip_prob": c.flip_prob,
                }
                for c in self.components
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Scene":
        _check_schema(obj, "dim", "label_count")
        comps = []
        for c in obj["components"]:
            _check_schema(c, "label")
            comps.append(SceneComponent(
                center=tuple(c["center"]),
                radius=float(c["radius"]),
                label=int(c["label"]),
                weight=float(c["weight"]),
                flip_prob=float(c.get("flip_prob", 0.0)),
            ))
        return Scene(int(obj["dim"]), tuple(comps), int(obj["label_count"]))


def sample(scene: Scene, n: int, seed: SeedSpec) -> LabeledSet:
    """n i.i.d. draws from the scene law, deterministic under the seed.

    Point coordinates and label noise come from separate substreams, so
    two scenes differing only in component labels share identical point
    streams under identical seeds.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pts, comp_idx = _sample_points(scene, n, seed)
    labels = _sample_labels(scene, comp_idx, seed)
    return LabeledSet(_frozen(pts), _frozen(labels), scene.label_count)


def sample_unlabeled(scene: Scene, n: int, seed: SeedSpec) -> UnlabeledSet:
    """Point stream of :func:`sample` without consuming the label stream."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pts, _ = _sample_points(scene, n, seed)
    return UnlabeledSet(_frozen(pts))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only. Nothing else holds a freshly sampled array, so the
    point sets keep it without the copy they make of a writeable input."""
    arr.setflags(write=False)
    return arr


def _sample_points(scene: Scene, n: int, seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = seed.rng(0)
    weights = np.asarray([c.weight for c in scene.components])
    weights = weights / weights.sum()
    comp_idx = rng.choice(len(scene.components), size=n, p=weights)
    direction = rng.standard_normal((n, scene.dim))
    norms = np.sqrt(np.add.reduce(direction * direction, axis=1, keepdims=True))  # np.linalg.norm's steps, same bits
    norms[norms == 0] = 1.0
    direction /= norms
    radial = rng.random(n) ** (1.0 / scene.dim)
    radii = np.asarray([c.radius for c in scene.components]).take(comp_idx)
    centers = scene.centers().take(comp_idx, axis=0)
    pts = centers + direction * (radial * radii)[:, None]
    return pts.reshape(n, scene.dim), comp_idx


def _sample_labels(scene: Scene, comp_idx: np.ndarray, seed: SeedSpec) -> np.ndarray:
    rng = seed.rng(1)
    n = comp_idx.shape[0]
    base = np.asarray([c.label for c in scene.components], dtype=np.int64)[comp_idx]
    flip_rolls = rng.random(n)
    # Drawn unconditionally so the stream advance is label-independent.
    alt_draw = rng.integers(0, max(1, scene.label_count - 1), size=n)
    flips = flip_rolls < np.asarray([c.flip_prob for c in scene.components])[comp_idx]
    alt = alt_draw + (alt_draw >= base)
    return np.where(flips, alt, base).astype(np.int64)


def bayes_label(scene: Scene, x) -> int:
    """Most-probable label at x: the (unflipped) label of the owning ball.

    Points outside every ball get the label of the nearest component
    surface. Ties go to the smallest component index.
    """
    return int(bayes_labels_batch(scene, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def bayes_labels_batch(scene: Scene, points: np.ndarray) -> np.ndarray:
    """:func:`bayes_label` of each row of an (n, D) point array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[1] != scene.dim:
        raise ValueError(f"points have dim {pts.shape[1]}, the scene has dim {scene.dim}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    dists = _distances(pts, scene.centers())
    radii = np.asarray([c.radius for c in scene.components])
    surface = np.maximum(dists - radii[None, :], 0.0)
    comp = surface.argmin(axis=1)
    labels = np.asarray([c.label for c in scene.components], dtype=np.int64)
    return labels[comp]


def bayes_risk(scene: Scene) -> float:
    """Closed-form risk of the Bayes classifier: the weighted flip mass."""
    return float(sum(c.weight * c.flip_prob for c in scene.components))


@dataclass(frozen=True, eq=False)
class ShiftProblem:
    """A source scene, a target scene, and the candidate map family."""

    source: Scene
    target: Scene
    family: FeatureFamily
    ground_truth: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.source.dim != self.target.dim or self.source.dim != self.family.input_dim:
            raise ValueError("source, target, and family dimensions must agree")
        if self.ground_truth is not None:
            object.__setattr__(self, "ground_truth", tuple(int(i) for i in self.ground_truth))
            for i in self.ground_truth:
                self.feature_map(i)

    def feature_map(self, index: int) -> FeatureMap:
        """The family's map at `index`, which must lie in [0, len(family))."""
        if not 0 <= index < len(self.family):
            raise ValueError(f"map index {index} is out of range for a family of {len(self.family)} maps")
        return self.family[index]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "family": self.family.to_json(),
            "ground_truth": list(self.ground_truth) if self.ground_truth is not None else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "ShiftProblem":
        _check_schema(obj, "ground_truth")
        return ShiftProblem(
            Scene.from_json(obj["source"]),
            Scene.from_json(obj["target"]),
            FeatureFamily.from_json(obj["family"]),
            obj.get("ground_truth"),
        )

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path) -> "ShiftProblem":
        with open(path) as fh:
            return ShiftProblem.from_json(json.load(fh))


@dataclass(frozen=True)
class PanelGeometry:
    """Knobs for the three built-in two-ball panels.

    offset: half-distance between class centers on the separating axis.
    radius: ball radius (must stay below offset for positive margins).
    shift: x-displacement of the target balls in panels (a) and (b).
    flip_prob: label noise applied to every component, source and target.
    """

    offset: float = 1.0
    radius: float = 0.4
    shift: float = 6.0
    flip_prob: float = 0.0

    def __post_init__(self):
        if self.radius < 0 or self.offset <= self.radius:
            raise ValueError("need 0 <= radius < offset for positive margins")
        if not 0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")


def _two_ball_scene(centers, labels, geom: PanelGeometry) -> Scene:
    comps = tuple(
        SceneComponent(center=c, radius=geom.radius, label=l, weight=0.5, flip_prob=geom.flip_prob)
        for c, l in zip(centers, labels)
    )
    return Scene(2, comps, 2)


def figure1_panel(panel: str, geom: PanelGeometry | None = None) -> ShiftProblem:
    """One of three planar two-class problems over the axis projections.

    (a) only the y-projection keeps the source classes apart; the target
        is the source translated along x.
    (b) both projections keep the source apart, but only the y-projection
        brings target points close to source points.
    (c) both projections keep the source apart and bring target close to
        source; they induce opposite target labelings and only the
        y-projection matches the target's actual labels.

    The family is [x-projection, y-projection]; ground_truth holds the
    index of the map intended to satisfy all three certified properties.
    """
    geom = geom or PanelGeometry()
    a, r, s = geom.offset, geom.radius, geom.shift
    family = cor_family(2, 1)
    if panel == "a":
        source = _two_ball_scene([(0.0, a), (0.0, -a)], [0, 1], geom)
        target = _two_ball_scene([(s, a), (s, -a)], [0, 1], geom)
    elif panel == "b":
        source = _two_ball_scene([(-a, -a), (a, a)], [0, 1], geom)
        target = _two_ball_scene([(s, -a), (s + 2 * a, a)], [0, 1], geom)
    elif panel == "c":
        source = _two_ball_scene([(-a, -a), (a, a)], [0, 1], geom)
        target = _two_ball_scene([(-a, a), (a, -a)], [1, 0], geom)
    else:
        raise ValueError(f"unknown panel {panel!r} (expected 'a', 'b', or 'c')")
    if source.margin() <= 0 or target.margin() <= 0:
        raise ValueError("degenerate geometry: non-positive margin")
    return ShiftProblem(source, target, family, ground_truth=(1,))


@dataclass(frozen=True)
class CertBudget:
    """Sample sizes, decision tolerances, and the contraction constant.

    Each property is judged against a (fail_below, pass_above) band;
    estimates inside the band yield "inconclusive".
    """

    n_source: int = 2000
    n_target: int = 2000
    preserve_fail: float = 0.01
    preserve_pass: float = 0.05
    contract_tol: float = 0.01
    lambda_: float = 4.0

    def __post_init__(self):
        if self.n_source < 2 or self.n_target < 1:
            raise ValueError("budget sample sizes too small")
        if not 0 <= self.preserve_fail <= self.preserve_pass:
            raise ValueError("need 0 <= preserve_fail <= preserve_pass")
        if not math.isfinite(self.contract_tol) or self.contract_tol < 0:
            raise ValueError("contract_tol must be finite and >= 0")
        if not math.isfinite(self.lambda_) or self.lambda_ <= 2:
            raise ValueError("contraction constant must be finite and exceed 2")


@dataclass(frozen=True, eq=False)
class CertReport:
    """Monte-Carlo verdicts for one map on one shift problem.

    worst_unify_violation is (d, source index, target index) for the sampled
    cross pair of different Bayes labels closer than rho_hat / 2 with the
    smallest map-space distance d; ties go to the smaller target index, then
    to the smaller source index. None when no such pair was seen or unify was
    not checked.
    """

    map_index: int
    preserves: str
    contracts: str
    unifies: str
    rho_hat: float
    beta_hat: float
    worst_unify_violation: tuple[float, int, int] | None
    n_source: int
    n_target: int

    def passes(self, *properties: str) -> bool:
        return all(getattr(self, p) == "pass" for p in properties)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "map_index": self.map_index,
            "preserves": self.preserves,
            "contracts": self.contracts,
            "unifies": self.unifies,
            "rho_hat": self.rho_hat,
            "beta_hat": self.beta_hat,
            "worst_unify_violation": list(self.worst_unify_violation)
            if self.worst_unify_violation
            else None,
            "n_source": self.n_source,
            "n_target": self.n_target,
        }


def _min_cross_label_distance(z: np.ndarray, labels: np.ndarray) -> float:
    """Smallest map-space distance between points of different labels."""
    pairs = (min_pair_sq(z[labels == lab], z[labels > lab]) for lab in np.unique(labels)[:-1])
    return math.sqrt(min(pairs, default=math.inf))


def certify(
    problem: ShiftProblem,
    map_index: int,
    budget: CertBudget | None = None,
    seed: SeedSpec | None = None,
) -> CertReport:
    """Monte-Carlo check of the three map properties on a shift problem.

    preserve: the induced margin between differently-Bayes-labeled source
    regions, estimated as the min cross-label distance over a sample, must
    clear the pass threshold. contract: the plug-in worst target-to-source
    distance must fall below rho_hat/lambda (with tolerance). unify: every
    sampled cross pair closer than rho_hat/2 must agree on Bayes labels.
    """
    budget = budget or CertBudget()
    seed = seed or SeedSpec(0)
    fmap = problem.feature_map(map_index)

    src_pts, _ = _sample_points(problem.source, budget.n_source, seed.substream(11))
    tgt_pts, _ = _sample_points(problem.target, budget.n_target, seed.substream(12))
    src_bayes = bayes_labels_batch(problem.source, src_pts)
    tgt_bayes = bayes_labels_batch(problem.target, tgt_pts)
    zs = apply_batch(fmap, src_pts)
    zt = apply_batch(fmap, tgt_pts)

    rho_hat = _min_cross_label_distance(zs, src_bayes)
    if rho_hat <= budget.preserve_fail:
        preserves = "fail"
    elif rho_hat > budget.preserve_pass:
        preserves = "pass"
    else:
        preserves = "inconclusive"

    # One nearest-source search. When preserve passes, unify needs each
    # target's nearest source of every label; otherwise the nearest of all
    # will do. Either way the column minimum is the nearest source, so
    # beta_hat has the bits of beta_estimate.
    if preserves == "pass":
        near = min_sq_by_label(zt, zs, src_bayes, max(problem.source.label_count, problem.target.label_count))
    else:
        near = min_sq(zt, zs)[None, :]
    beta_hat = float(np.sqrt(near.min(axis=0).max()))

    if preserves == "pass":
        bound = rho_hat / budget.lambda_
        if beta_hat < bound - budget.contract_tol:
            contracts = "pass"
        elif beta_hat > bound + budget.contract_tol:
            contracts = "fail"
        else:
            contracts = "inconclusive"
        worst = _worst_unify_violation(near, zt, tgt_bayes, zs, src_bayes, rho_hat / 2.0)
        unifies = "pass" if worst is None else "fail"
    else:
        # Both downstream properties are defined relative to the induced
        # margin; without a certified margin they cannot be decided.
        contracts = "fail" if preserves == "fail" else "inconclusive"
        unifies, worst = "inconclusive", None
    return CertReport(
        map_index, preserves, contracts, unifies, rho_hat, beta_hat, worst, budget.n_source, budget.n_target
    )


def _worst_unify_violation(
    near_by_label: np.ndarray,
    zt: np.ndarray,
    tgt_bayes: np.ndarray,
    zs: np.ndarray,
    src_bayes: np.ndarray,
    limit: float,
) -> tuple[float, int, int] | None:
    """(d, source index, target index) of the closest cross pair of different
    labels with squared distance below limit * limit, or None.

    `near_by_label` is the :func:`min_sq_by_label` table of zt against zs,
    with a row for every target label. Each target's nearest source of
    another label gives its smallest pair distance; the worst pair has the
    smallest d, then the smallest target index, then the smallest source
    index. Distances are compared after the square root, because
    neighbouring squared distances can share one.
    """
    other = near_by_label.copy()
    other[tgt_bayes, np.arange(zt.shape[0])] = np.inf  # drop each target's own label
    near = other.min(axis=0)
    bad = np.flatnonzero(near < limit * limit)
    if bad.size == 0:
        return None
    d = np.sqrt(near[bad])
    w = d.argmin()  # the first minimum, at the smallest target index
    t, dmin = int(bad[w]), d[w]
    srcs = np.flatnonzero(src_bayes != tgt_bayes[t])  # the subset near[t] came from
    sq = pair_sq(zt[t], zs[srcs])
    pairs = (sq < limit * limit) & (np.sqrt(sq) == dmin)
    return float(dmin), int(srcs[np.flatnonzero(pairs)[0]]), t


def induced_source_labeler(
    problem: ShiftProblem, map_index: int, dense_n: int, seed: SeedSpec
):
    """Labeling rule: nearest dense-source-sample image, labeled by the source oracle.

    Returns a function mapping an (n, D) point array to label ids. Among
    equally near sample images, the one drawn first wins.
    """
    fmap = problem.feature_map(map_index)
    pts, _ = _sample_points(problem.source, dense_n, seed.substream(21))
    support = LabeledSet(pts, bayes_labels_batch(problem.source, pts), problem.source.label_count)

    def labeler(points: np.ndarray) -> np.ndarray:
        # A k = 1 vote is the label of the first nearest image.
        return family_votes(support, 1, [fmap], UnlabeledSet(points))[0]

    return labeler


def twin_targets(
    problem: ShiftProblem,
    map1_index: int,
    map2_index: int,
    dense_n: int = 10_000,
    seed: SeedSpec | None = None,
    budget: CertBudget | None = None,
) -> tuple[Scene, Scene]:
    """Two target scenes sharing the target marginal, labeled by rival maps.

    Each map must pass preserve+contract certification. Target i is the
    problem's target marginal relabeled by the nearest-induced-source rule
    of map i (per component, by majority over an in-component sample), with
    deterministic labels. When the maps disagree on part of the target
    support, the twins disagree there too, and no learner that ignores
    target labels can distinguish them.
    """
    seed = seed or SeedSpec(0)
    budget = budget or CertBudget()
    for idx in (map1_index, map2_index):
        problem.feature_map(idx)  # range-checked before it seeds a substream
        report = certify(problem, idx, budget, seed.substream(31, idx))
        if not report.passes("preserves", "contracts"):
            raise ValueError(
                f"map {idx} must pass preserve+contract certification, got "
                f"preserve={report.preserves}, contract={report.contracts}"
            )
    scenes = []
    probe_n = 500
    target = problem.target
    probes = np.concatenate(
        [_component_points(target, ci, probe_n, seed.substream(33, ci)) for ci in range(len(target.components))]
    )
    for idx in (map1_index, map2_index):
        # One labeler call for every component's probes; the k = 1 vote
        # labels each row on its own, so the votes split back per component.
        votes = induced_source_labeler(problem, idx, dense_n, seed.substream(32, idx))(probes)
        comps = []
        for comp, part in zip(target.components, np.split(votes, len(target.components))):
            counts = np.bincount(part, minlength=target.label_count)
            comps.append(replace(comp, label=int(counts.argmax()), flip_prob=0.0))
        scenes.append(Scene(target.dim, tuple(comps), target.label_count))
    return scenes[0], scenes[1]


def _component_points(scene: Scene, ci: int, n: int, seed: SeedSpec) -> np.ndarray:
    """n points drawn uniformly from the ball of component ci alone."""
    one = Scene(scene.dim, (replace(scene.components[ci], weight=1.0),), scene.label_count)
    return _sample_points(one, n, seed)[0]


def _image_regions(scene: Scene, fmap: FeatureMap, n_per_comp: int, seed: SeedSpec):
    """Sampled map-space images of each component, with labels."""
    zs, labels = [], []
    for ci, comp in enumerate(scene.components):
        zs.append(apply_batch(fmap, _component_points(scene, ci, n_per_comp, seed.substream(41, ci))))
        labels.append(np.full(n_per_comp, comp.label))
    return np.concatenate(zs), np.concatenate(labels)


def perturb_source(
    problem: ShiftProblem,
    map1_index: int,
    map2_index: int,
    eps_budget: float,
    seed: SeedSpec | None = None,
    ball_radius: float = 0.1,
) -> tuple[ShiftProblem, ShiftProblem]:
    """Mass surgery yielding two nearby problems no source-only learner solves.

    Finds a target support point x whose image under map2 falls outside the
    induced source support, then inserts four balls of weight eps_budget/4
    into the source: two sharing x's image under map1 (labels y1 then y2 at
    a separated image offset) and two sharing x's image under map2 (labels
    y2 then y1). The returned problems share the perturbed source and carry
    point-mass targets at x labeled y1 and y2 respectively, so the risks of
    any single classifier on the two targets sum to one. Inserted balls are
    placed clear of the existing support, keeping the total inserted plus
    removed mass within eps_budget.

    Raises, before any sampling, when an index names no map, when the two
    maps coincide, when the source has one label, when eps_budget is not a
    number in (0, 1), or when ball_radius is not finite and non-negative;
    after it, when map2 never strays from the induced source support, or when
    no clear placement exists.
    """
    fmap1, fmap2 = problem.feature_map(map1_index), problem.feature_map(map2_index)
    if map1_index == map2_index:
        raise ValueError("construction requires two distinct maps")
    if problem.source.label_count < 2:
        raise ValueError(f"construction requires at least two source labels, got {problem.source.label_count}")
    if not 0 < eps_budget < 1:  # NaN fails every comparison
        raise ValueError("eps_budget must lie in (0, 1)")
    if not 0 <= ball_radius < math.inf:
        raise ValueError("ball_radius must be finite and non-negative")
    seed = seed or SeedSpec(0)
    dense_n = 4000

    src_pts, _ = _sample_points(problem.source, dense_n, seed.substream(51))
    tgt_pts, _ = _sample_points(problem.target, dense_n, seed.substream(52))

    # Target point farthest (under map2) from the induced source support.
    zs2 = apply_batch(fmap2, src_pts)
    zt2 = apply_batch(fmap2, tgt_pts)
    gaps = np.sqrt(min_sq(zt2, zs2))
    anchor = int(gaps.argmax())
    escape = float(gaps[anchor])
    if escape <= 4 * ball_radius:
        raise ValueError("map2 keeps the target within the induced source support; nothing to exploit")
    x = tgt_pts[anchor]

    y1 = int(induced_source_labeler(problem, map1_index, dense_n, seed.substream(53))(x.reshape(1, -1))[0])
    y2 = min(l for l in range(problem.source.label_count) if l != y1)

    centers, labels = _place_four_balls(problem, fmap1, fmap2, x, y1, y2, ball_radius, seed)

    scale = 1.0 - eps_budget
    comps = [replace(c, weight=c.weight * scale) for c in problem.source.components]
    comps += [
        SceneComponent(center=tuple(c), radius=ball_radius, label=l, weight=eps_budget / 4)
        for c, l in zip(centers, labels)
    ]
    source2 = Scene(problem.source.dim, tuple(comps), problem.source.label_count)

    def point_mass(label: int) -> Scene:
        comp = SceneComponent(center=tuple(float(v) for v in x), radius=0.0, label=label, weight=1.0)
        return Scene(problem.source.dim, (comp,), problem.source.label_count)

    p1 = ShiftProblem(source2, point_mass(y1), problem.family, ground_truth=(map1_index,))
    p2 = ShiftProblem(source2, point_mass(y2), problem.family, ground_truth=(map2_index,))
    return p1, p2


def _place_four_balls(problem, fmap1, fmap2, x, y1, y2, s, seed):
    """Search for four insertable ball centers satisfying the image constraints.

    Ball 1 shares x's image under map1 (label y1); ball 1' sits at a
    separated map1 offset from it (label y2). Balls 2 and 2' mirror the
    construction under map2 with labels y2 and y1. All four must be
    pairwise 4s-apart, clear of the existing source support, and their
    images under both maps must keep differently-labeled regions apart.
    """
    n_img = 400
    img1_z, img1_lab = _image_regions(problem.source, fmap1, n_img, seed.substream(61))
    img2_z, img2_lab = _image_regions(problem.source, fmap2, n_img, seed.substream(62))

    span = max(
        float(np.abs(problem.source.centers()).max()),
        float(np.abs(problem.target.centers()).max()),
        1.0,
    )
    m1, m2 = _matrix_of(fmap1), _matrix_of(fmap2)
    null1, row1 = _null_rows_and_row_direction(m1)
    null2, row2 = _null_rows_and_row_direction(m2)
    if null1.size == 0 or null2.size == 0:
        raise ValueError("maps must lose rank for the construction to apply")

    clear = 4 * s
    offsets = [c * span for c in (4.0, -4.0, 6.0, -6.0, 8.0, -8.0)]
    image_steps = [c * span for c in (1.0, 1.5, 2.0, -1.0, -1.5, -2.0)]

    # The spectral norm is taken on its own: the SVD's largest singular value
    # can differ from it in the last bit.
    guard = clear + 2 * s * max(float(np.linalg.norm(m1, 2)), float(np.linalg.norm(m2, 2)), 1.0)
    radii = np.asarray([c.radius for c in problem.source.components])
    labs = [y1, y2, y2, y1]
    lab_arr = np.asarray(labs)
    differ = lab_arr[:, None] != lab_arr[None, :]
    apart = ~np.eye(len(labs), dtype=bool)

    def ok(pts):
        if np.any(_distances(pts, pts)[apart] <= clear):
            return False
        if np.any(_distances(pts, problem.source.centers()) <= radii + clear):
            return False
        # Only distances involving an inserted ball are constrained here;
        # the host scene's own margin is whatever it already is.
        for fmap, img_z, img_lab in ((fmap1, img1_z, img1_lab), (fmap2, img2_z, img2_lab)):
            z = apply_batch(fmap, pts)
            if np.any(_distances(z, img_z)[lab_arr[:, None] != img_lab[None, :]] <= guard):
                return False
            if np.any(_distances(z, z)[differ] <= guard):
                return False
        return True

    for t1, h1, t2, h2 in itertools.product(offsets, image_steps, offsets, image_steps):
        x1, x2 = x + t1 * null1[0], x + t2 * null2[0]
        pts = np.stack([x1, x1 + h1 * row1 + (t1 / 2) * null1[0], x2, x2 + h2 * row2 + (t2 / 2) * null2[0]])
        if ok(pts):
            return list(pts), labs
    raise ValueError("geometry cannot host the four disjoint balls")


def _matrix_of(fmap: FeatureMap) -> np.ndarray:
    """The (D, K) matrix of the map: the images of the unit vectors."""
    return fmap.matrix if fmap.kind == "linear" else apply_batch(fmap, np.eye(fmap.input_dim))


def _null_rows_and_row_direction(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the directions the (D, K) matrix m sends to
    zero, and a unit direction with a non-zero image, from one SVD."""
    _, sv, vt = np.linalg.svd(m.T, full_matrices=True)
    if sv[0] <= 1e-12:
        raise ValueError("map has no non-trivial image direction")
    return vt[int(np.sum(sv > 1e-12)):], vt[0]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of a to every row of b."""
    return np.sqrt(pair_sq(a[:, None], b[None]))
