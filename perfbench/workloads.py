"""Benchmark workloads: shared set-up plus one op per index.

An op is one unit of user work. Op i of a workload is a pure function of
(workload seed, i): its slot in the workload's rotation picks what to run,
and its seed is ``SeedSpec(seed).substream(cell, trial)``, derived the way
``sirmnn sweep`` derives trial seeds. Outputs therefore do not depend on
which client thread ran the op, or when.

Every workload talks to the library through the module object ``sm`` it
was built with and resolves each function at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
WIDE_PROBLEM = os.path.join(HERE, "wide_problem.json")

# Column order of `sirmnn sweep --out-csv`.
SWEEP_FIELDS = ("learner", "n", "m", "trial", "chosen_map", "fallback", "source_risk", "target_risk", "status")
REGIME_M = {"source-only": 0, "unlabeled": 200, "validate": 50}
PANELS = ("a", "b", "c")
EVAL_N = 2000  # default --eval-n of `sirmnn sweep`


class Rotation:
    """Op index -> (kind, trial) for a repeating list of op kinds.

    Each rotation visits every slot once, in an order shuffled from (seed,
    rotation number). A fixed order lets the two clients lock into running
    the same pairs of kinds side by side for a whole run, which made
    throughput swing by 10-20 % between runs. A kind may fill several
    slots; its trials then count across those slots, so every op of a kind
    gets its own trial number.
    """

    def __init__(self, kinds, seed: int):
        self.kinds = list(kinds)
        self.seed = seed
        self._repeat = [self.kinds.count(k) for k in self.kinds]
        self._occurrence = [self.kinds[:j].count(k) for j, k in enumerate(self.kinds)]

    def __len__(self) -> int:
        return len(self.kinds)

    def locate(self, i: int):
        rnd, pos = divmod(i, len(self.kinds))
        slot = int(np.random.default_rng([self.seed, rnd]).permutation(len(self.kinds))[pos])
        return self.kinds[slot], rnd * self._repeat[slot] + self._occurrence[slot]

    def cell(self, kind) -> int:
        return self.kinds.index(kind)


def record_row(record: dict) -> str:
    """The CSV row `sirmnn sweep` writes for a record."""
    return ",".join(str(record[f]) for f in SWEEP_FIELDS)


class SweepWorkload:
    """Sweep trials over (problem, regime) kinds, as `sirmnn sweep` runs them.

    Each kind is one single-cell sweep (cell 0), so the records of a kind
    equal the CSV rows of `sirmnn sweep` on that problem and regime.
    """

    def __init__(self, sm, problems: dict, mix, seed: int, n: int, eval_n: int = EVAL_N, m_of=None):
        self.sm = sm
        self.problems = problems
        self.rotation = Rotation(mix, seed)
        self.seed = sm.SeedSpec(seed)
        self.n = n
        self.eval_n = eval_n
        self.m_of = dict(REGIME_M if m_of is None else m_of)

    def record(self, i: int) -> tuple[dict, tuple]:
        sm = self.sm
        (name, regime), trial = self.rotation.locate(i)
        problem = self.problems[name]
        m = self.m_of[regime]
        sub = self.seed.substream(0, trial)
        source = sm.sample(problem.source, self.n, sub.substream(0))
        cfg = sm.LearnerConfig()
        target = None
        if regime == "source-only":
            out = sm.direct_generalize_nn(source, problem.family, cfg)
        elif regime == "unlabeled":
            target = sm.sample_unlabeled(problem.target, m, sub.substream(1))
            out = sm.presrv_contract_nn(source, target, problem.family, cfg)
        else:
            target = sm.sample(problem.target, m, sub.substream(1))
            out = sm.feature_validate(source, target, problem.family, sm.k_of_n(cfg.k_schedule, len(source)))
        eval_tgt = sm.sample(problem.target, self.eval_n, sub.substream(2))
        eval_src = sm.sample(problem.source, self.eval_n, sub.substream(3))
        record = {
            "learner": regime,
            "n": self.n,
            "m": m,
            "trial": trial,
            "chosen_map": out.chosen_map_index,
            "fallback": int(out.fallback),
            "source_risk": f"{sm.empirical_risk(out.classifier, eval_src).value:.6f}",
            "target_risk": f"{sm.empirical_risk(out.classifier, eval_tgt).value:.6f}",
            "status": "ok",
        }
        return record, (regime, problem, source, target, out, eval_src, eval_tgt, record)

    def op(self, i: int):
        record, artefact = self.record(i)
        out = artefact[4]
        # The per-map scores are part of what `sirmnn train` writes, so they are hashed too.
        return record_row(record) + "\n" + _canon([d.to_json() for d in out.diagnostics]), artefact

    def check(self, artefact, full: bool) -> list[str]:
        problem, out = artefact[1], artefact[4]
        errors = []
        chosen = out.chosen_map_index
        if not 0 <= chosen < len(problem.family) or out.classifier.fmap is not problem.family[chosen]:
            errors.append(f"chosen map {chosen} does not match the returned classifier")
        if full:
            errors += oracle.check_sweep(self.sm, artefact)
        return errors


class AnalysisWorkload:
    """The non-kNN tools: certify, twin targets, mass surgery, shattering."""

    CERT_BUDGET = (4000, 4000)
    SHATTER_QUADS = 40
    SHATTER_SIZE = 5
    SHATTER_BUDGET = 2500
    PERTURB_EPS = 0.08

    def __init__(self, sm, panels: dict, wide, seed: int):
        self.sm = sm
        self.problems = dict(panels, wide=wide)
        kinds = [("certify", p, mi) for p in PANELS for mi in (0, 1)]
        kinds.append(("certify", "wide", wide.ground_truth[0]))
        kinds += [("twin", "c", 0, 1), ("perturb", "b", 1, 0), ("shatter",)]
        self.rotation = Rotation(kinds, seed)
        self.seed = sm.SeedSpec(seed)

    def op(self, i: int):
        sm = self.sm
        kind, trial = self.rotation.locate(i)
        seed = self.seed.substream(self.rotation.cell(kind), trial)
        if kind[0] == "certify":
            _, name, mi = kind
            budget = sm.CertBudget(*self.CERT_BUDGET)
            report = sm.certify(self.problems[name], mi, budget, seed)
            return _canon(report.to_json()), (kind, self.problems[name], budget, seed, report)
        if kind[0] == "twin":
            _, name, m1, m2 = kind
            scenes = sm.twin_targets(self.problems[name], m1, m2, seed=seed)
            return _canon([s.to_json() for s in scenes]), (kind, self.problems[name], scenes)
        if kind[0] == "perturb":
            _, name, m1, m2 = kind
            pair = sm.perturb_source(self.problems[name], m1, m2, self.PERTURB_EPS, seed=seed)
            return _canon([p.to_json() for p in pair]), (kind, self.problems[name], pair)
        family = sm.proj_family_random(4, 2, 64, seed.substream(0))
        rng = seed.rng(1)
        quads = [sm.ComparerQuery(*(rng.random(4) for _ in range(4))) for _ in range(self.SHATTER_QUADS)]
        verdict = sm.shattering_search(family, quads, self.SHATTER_SIZE, max_candidates=self.SHATTER_BUDGET)
        payload = {
            "status": verdict.status,
            "witness": verdict.witness,
            "dichotomies": verdict.dichotomies,
            "candidates_checked": verdict.candidates_checked,
        }
        return _canon(payload), (kind, verdict)

    def check(self, artefact, full: bool) -> list[str]:
        kind = artefact[0][0]
        if kind == "certify":
            return oracle.check_certify(self.sm, *artefact[1:], full=full)
        if kind == "twin":
            return oracle.check_twins(*artefact[1:])
        if kind == "perturb":
            return oracle.check_perturbed(*artefact[1:], self.PERTURB_EPS)
        return oracle.check_shattering(artefact[1], self.SHATTER_SIZE, self.SHATTER_BUDGET)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def panels(sm) -> dict:
    return {p: sm.figure1_panel(p) for p in PANELS}


def wide_problem(sm):
    return sm.ShiftProblem.load(WIDE_PROBLEM)


def panel_sweep(sm, seed: int) -> SweepWorkload:
    mix = [(p, r) for r in REGIME_M for p in PANELS]
    return SweepWorkload(sm, panels(sm), mix, seed, n=4000)


def wide_family(sm, seed: int) -> SweepWorkload:
    # One source-only slot per two unlabeled ones puts p50 inside the faster
    # group and p90 inside the slower one, away from the edge between them.
    mix = [("wide", "source-only"), ("wide", "unlabeled"), ("wide", "unlabeled")]
    return SweepWorkload(sm, {"wide": wide_problem(sm)}, mix, seed, n=2000)


def analysis_scan(sm, seed: int) -> AnalysisWorkload:
    return AnalysisWorkload(sm, panels(sm), wide_problem(sm), seed)


WORKLOADS = {
    "panel_sweep": panel_sweep,
    "wide_family": wide_family,
    "analysis_scan": analysis_scan,
}
