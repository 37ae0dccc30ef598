"""Reference checks for op outputs, independent of the library's kernels.

The k-NN reference ranks neighbors with a full stable sort over squared
distances computed by direct coordinate differences, which is the
library's documented (distance, insertion index) order. Any faster search
must give exactly the same predictions. Each check returns a list of
error messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

_ROWS = 256  # query rows per block; keeps scratch memory small


def _images(fmap, points: np.ndarray) -> np.ndarray:
    if fmap is None or fmap.kind == "identity":
        return points
    if fmap.kind == "coordinate_subset":
        return points[:, list(fmap.coords)]
    return points @ fmap.matrix


def _sq_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def knn_predict(train_points, train_labels, label_count: int, k: int, fmap, queries) -> np.ndarray:
    train_z = _images(fmap, train_points)
    query_z = _images(fmap, queries)
    out = np.empty(query_z.shape[0], dtype=np.int64)
    for lo in range(0, query_z.shape[0], _ROWS):
        idx = np.argsort(_sq_block(query_z[lo : lo + _ROWS], train_z), axis=1, kind="stable")[:, :k]
        votes = train_labels[idx]
        counts = np.stack([(votes == lab).sum(axis=1) for lab in range(label_count)], axis=1)
        out[lo : lo + _ROWS] = counts.argmax(axis=1)  # first maximum: ties go to the smaller label
    return out


def _k_log_squared(n: int) -> int:
    return min(n, max(1, math.ceil(math.log(n) ** 2)))


def _error_frac(train, k, fmap, test_points, test_labels) -> float:
    preds = knn_predict(train.points, train.labels, train.label_count, k, fmap, test_points)
    return int(np.count_nonzero(preds != test_labels)) / len(test_labels)


def check_sweep(sm, artefact) -> list[str]:
    """Per-map held-out losses and both eval risks of one sweep trial."""
    regime, problem, source, target, out, eval_src, eval_tgt, record = artefact
    errors = []
    maps = problem.family.maps
    if regime == "validate":
        k = _k_log_squared(len(source))
        want = [_error_frac(source, k, f, target.points, target.labels) for f in maps]
        got = [d.target_loss for d in out.diagnostics]
    else:
        frac = 0.25 if regime == "source-only" else 0.2
        cut = int(len(source) * frac)  # split_fractions sizes parts as int(n * fraction)
        s_tr, s_loss = source.slice(0, cut), source.slice(cut, 2 * cut)
        k = _k_log_squared(len(s_tr))
        want = [_error_frac(s_tr, k, f, s_loss.points, s_loss.labels) for f in maps]
        got = [d.source_loss for d in out.diagnostics]
    if got != want:
        errors.append(f"{regime}: per-map losses {got} differ from reference {want}")
    clf = out.classifier
    for field, ev in (("source_risk", eval_src), ("target_risk", eval_tgt)):
        ref = f"{_error_frac(clf.train, clf.k, clf.fmap, ev.points, ev.labels):.6f}"
        if record[field] != ref:
            errors.append(f"{regime}: {field} {record[field]} differs from reference {ref}")
    return errors


def _bayes_labels(scene, points: np.ndarray) -> np.ndarray:
    centers = scene.centers()
    radii = np.asarray([c.radius for c in scene.components])
    labels = np.asarray([c.label for c in scene.components], dtype=np.int64)
    dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return labels[np.maximum(dists - radii[None, :], 0.0).argmin(axis=1)]


def _min_sq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of `a`, the smallest squared distance to a row of `b`."""
    out = np.full(a.shape[0], np.inf)
    for lo in range(0, a.shape[0], _ROWS):
        out[lo : lo + _ROWS] = _sq_block(a[lo : lo + _ROWS], b).min(axis=1)
    return out


VERDICTS = ("pass", "fail", "inconclusive")


def check_certify(sm, problem, budget, seed, report, full: bool) -> list[str]:
    """Verdict consistency always; with `full`, rho_hat and beta_hat recomputed.

    The reference draws the same point streams as the certifier (source
    substream 11, target substream 12) through the public sampler.
    """
    errors = []
    if {report.preserves, report.contracts, report.unifies} - set(VERDICTS):
        errors.append(f"certify: unknown verdict in {report.to_json()}")
    want_preserve = (
        "fail" if report.rho_hat <= budget.preserve_fail
        else "pass" if report.rho_hat > budget.preserve_pass
        else "inconclusive"
    )
    if report.preserves != want_preserve:
        errors.append(f"certify: preserves={report.preserves} but rho_hat={report.rho_hat!r}")
    if not full:
        return errors
    fmap = problem.family[report.map_index]
    src = sm.sample_unlabeled(problem.source, budget.n_source, seed.substream(11)).points
    tgt = sm.sample_unlabeled(problem.target, budget.n_target, seed.substream(12)).points
    labels = _bayes_labels(problem.source, src)
    zs, zt = _images(fmap, src), _images(fmap, tgt)
    best = math.inf
    for lab in np.unique(labels):
        a, b = zs[labels == lab], zs[labels > lab]
        if a.size and b.size:
            best = min(best, float(_min_sq_rows(a, b).min()))
    rho = math.sqrt(best) if best < math.inf else math.inf
    beta = float(np.sqrt(_min_sq_rows(zt, zs).max()))
    if (report.rho_hat, report.beta_hat) != (rho, beta):
        errors.append(
            f"certify: (rho_hat, beta_hat)=({report.rho_hat!r}, {report.beta_hat!r}) "
            f"differ from reference ({rho!r}, {beta!r})"
        )
    return errors


def check_twins(problem, scenes) -> list[str]:
    """Both twins keep the target marginal, drop label noise, and use valid labels."""
    errors = []
    tgt = problem.target
    for s in scenes:
        same_marginal = len(s.components) == len(tgt.components) and all(
            (a.center, a.radius, a.weight) == (b.center, b.radius, b.weight)
            for a, b in zip(s.components, tgt.components)
        )
        if not same_marginal:
            errors.append("twin_targets: a twin changed the target marginal")
        if any(c.flip_prob != 0.0 or not 0 <= c.label < tgt.label_count for c in s.components):
            errors.append("twin_targets: a twin has label noise or an invalid label")
    return errors


def check_perturbed(problem, pair, eps: float) -> list[str]:
    """Shared perturbed source with four inserted balls; point-mass targets that disagree."""
    errors = []
    p1, p2 = pair
    if p1.source.to_json() != p2.source.to_json():
        errors.append("perturb_source: the two problems do not share one source")
    comps = p1.source.components
    if len(comps) != len(problem.source.components) + 4:
        errors.append(f"perturb_source: expected 4 inserted balls, source has {len(comps)} components")
    inserted = sum(c.weight for c in comps[-4:])
    if not math.isclose(inserted, eps, rel_tol=1e-9):
        errors.append(f"perturb_source: inserted mass {inserted!r} differs from eps {eps!r}")
    t1, t2 = p1.target.components, p2.target.components
    if len(t1) != 1 or len(t2) != 1 or t1[0].center != t2[0].center or t1[0].label == t2[0].label:
        errors.append("perturb_source: targets are not point masses at one point with different labels")
    return errors


def check_shattering(verdict, size: int, budget: int) -> list[str]:
    errors = []
    if verdict.status not in ("found", "none", "inconclusive") or not 0 <= verdict.candidates_checked <= budget:
        errors.append(f"shattering_search: bad verdict {verdict.status} after {verdict.candidates_checked} candidates")
    if verdict.status == "found" and (len(verdict.witness) != size or len(set(verdict.dichotomies)) != 2**size):
        errors.append("shattering_search: witness does not realize every dichotomy")
    return errors
