"""Command-line workflows: scenario generation, training, sweeps, plots, probes.

Exit codes: 0 success, 2 usage or input error, 1 internal error. Logs go
to stderr; machine-readable results go to files and stdout. Identical
arguments and seeds produce byte-identical primary outputs regardless of
the SIRM_THREADS worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from statistics import median, quantiles

from .core import (SCHEMA_VERSION, LabeledSet, SeedSpec, UnlabeledSet, load_csv, load_csv_unlabeled, save_csv,
                   save_csv_unlabeled, write_json)
from .estimators import empirical_risk
from .featuremaps import ComparerQuery, FeatureFamily, cor_family, proj_family_random, shattering_search
from .knn import KSchedule, k_of_n
from .learners import (
    SOURCE_ONLY_MIN_N,
    UNLABELED_MIN_N,
    LearnerConfig,
    direct_generalize_nn,
    feature_validate,
    presrv_contract_nn,
)
from .scenarios import PanelGeometry, ShiftProblem, figure1_panel, sample, sample_unlabeled
from .svg import render_sweep_svg

# Each --regime's needs: the fewest source rows its learner accepts, and the
# target it learns from (None, "unlabeled" or "labeled").
REGIMES = {"source-only": (SOURCE_ONLY_MIN_N, None), "unlabeled": (UNLABELED_MIN_N, "unlabeled"),
           "validate": (1, "labeled")}
SWEEP_FIELDS = ("learner", "n", "m", "trial", "chosen_map", "fallback", "source_risk", "target_risk", "status")


class UsageError(Exception):
    """Input or argument problem attributable to the caller."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextmanager
def _caller_input():
    """Report an error raised while reading caller input as a usage error.

    A ValueError or TypeError is a bad or wrongly typed value, a KeyError a
    key missing from an input file. Only code that parses flags or files
    wraps itself in this; such an error raised anywhere else is internal.
    """
    try:
        yield
    except KeyError as exc:
        raise UsageError(f"missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _count(text: str) -> int:
    """argparse type for a non-negative integer flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seed(text: str) -> SeedSpec:
    """argparse type for --seed: a master seed that fits in 64 unsigned bits."""
    try:
        return SeedSpec(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"{flag} must list integers, got {text!r}") from None


def _threads() -> int:
    """Sweep workers: the CPUs this process may use, at most SIRM_THREADS (8 if unset)."""
    raw, cap = os.environ.get("SIRM_THREADS", ""), 8
    if raw.strip():
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"SIRM_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise UsageError("SIRM_THREADS must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cap, cpus)


def _parse_epsilon_mode(mode: str) -> tuple[str, float | None]:
    """paper -> verbatim absolute admission; relative -> relative-to-best;
    fixed:v -> absolute admission at a fixed threshold."""
    if mode == "paper":
        return "absolute", None
    if mode == "relative":
        return "relative", None
    if mode.startswith("fixed:"):
        try:
            return "absolute", float(mode.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad fixed epsilon in {mode!r}")
    raise UsageError(f"unknown epsilon mode {mode!r} (expected paper|relative|fixed:v)")


def _learner_config(args) -> LearnerConfig:
    admission, eps = _parse_epsilon_mode(args.epsilon_mode)
    with _caller_input():
        sched = KSchedule("fixed", k=args.k) if args.k else KSchedule()
        return LearnerConfig(epsilon=eps, lambda_=args.lambda_, k_schedule=sched, admission_mode=admission)


def _load_problem(args) -> ShiftProblem:
    if getattr(args, "panel", None):
        with _caller_input():
            geom = PanelGeometry(flip_prob=args.flip_prob)
        return figure1_panel(args.panel, geom)
    if getattr(args, "spec", None):
        path = _require_file(args.spec, "problem spec")
        with _caller_input():
            return ShiftProblem.load(path)
    raise UsageError("either --panel or --spec is required")


def _require_file(path: str, what: str) -> str:
    if not path:
        raise UsageError(f"missing required {what}")
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def cmd_scenario(args) -> int:
    problem = _load_problem(args)
    seed = args.seed
    os.makedirs(args.out, exist_ok=True)
    problem.save(os.path.join(args.out, "problem.json"))
    save_csv(sample(problem.source, args.n, seed.substream(1)), os.path.join(args.out, "source.csv"))
    if args.m > 0:
        tgt = sample(problem.target, args.m, seed.substream(2))
        save_csv(tgt, os.path.join(args.out, "target_labeled.csv"))
        save_csv_unlabeled(tgt.unlabeled(), os.path.join(args.out, "target_unlabeled.csv"))
    if args.eval_n > 0:
        save_csv(sample(problem.target, args.eval_n, seed.substream(3)), os.path.join(args.out, "eval.csv"))
    _log(f"scenario written to {args.out}")
    return 0


def _run_learner(regime: str, problem: ShiftProblem, source: LabeledSet, cfg: LearnerConfig,
                 target: LabeledSet | UnlabeledSet | None):
    """The regime's learner on the source and the target its REGIMES entry names (None for source-only)."""
    if regime == "source-only":
        return direct_generalize_nn(source, problem.family, cfg)
    if regime == "unlabeled":
        return presrv_contract_nn(source, target, problem.family, cfg)
    return feature_validate(source, target, problem.family, k_of_n(cfg.k_schedule, len(source)))


def _load_points(path: str, what: str, problem: ShiftProblem, label_count: int | None):
    """A non-empty labeled CSV (unlabeled when label_count is None) of the problem's dimension."""
    path = _require_file(path, what)
    with _caller_input():
        points = load_csv_unlabeled(path) if label_count is None else load_csv(path, label_count)
    if points.dim != problem.family.input_dim:
        raise UsageError(f"{what} has dimension {points.dim}, the problem needs {problem.family.input_dim}")
    if len(points) == 0:
        raise UsageError(f"{what} has no rows")
    return points


def cmd_train(args) -> int:
    problem = _load_problem(args)
    min_rows, wanted = REGIMES[args.regime]
    source = _load_points(args.source, "source CSV", problem, problem.source.label_count)
    if len(source) < min_rows:
        raise UsageError(f"regime {args.regime!r} needs at least {min_rows} source rows")
    cfg = _learner_config(args)
    target = None
    if wanted:
        labels = problem.target.label_count if wanted == "labeled" else None
        target = _load_points(args.target, "target CSV", problem, labels)

    out = _run_learner(args.regime, problem, source, cfg, target)
    result = out.to_json()
    result["regime"] = args.regime
    if args.eval:
        eval_set = _load_points(args.eval, "eval CSV", problem, problem.target.label_count)
        result["target_risk"] = empirical_risk(out.classifier, eval_set).value
    write_json(result, args.out)
    summary = {key: result[key] for key in ("chosen_map_index", "target_risk") if key in result}
    print(json.dumps(summary, sort_keys=True))
    _log(f"learner output written to {args.out}")
    return 0


def _sweep_trial(problem: ShiftProblem, regime: str, cfg: LearnerConfig, n: int, m: int,
                 eval_n: int, seed: SeedSpec, cell: int, trial: int) -> dict:
    sub = seed.substream(cell, trial)
    _, wanted = REGIMES[regime]
    record = {"learner": regime, "n": n, "m": m, "trial": trial}
    start = time.perf_counter()
    try:
        source = sample(problem.source, n, sub.substream(0))
        target = None
        if wanted:
            target = (sample if wanted == "labeled" else sample_unlabeled)(problem.target, m, sub.substream(1))
        out = _run_learner(regime, problem, source, cfg, target)
        eval_tgt = sample(problem.target, eval_n, sub.substream(2))
        eval_src = sample(problem.source, eval_n, sub.substream(3))
        record.update(chosen_map=out.chosen_map_index, fallback=int(out.fallback), status="ok",
                      source_risk=f"{empirical_risk(out.classifier, eval_src).value:.6f}",
                      target_risk=f"{empirical_risk(out.classifier, eval_tgt).value:.6f}")
    except Exception as exc:  # partial failure: mark the record, keep sweeping
        _log(f"trial ({cell}, {trial}): {type(exc).__name__}: {exc}\n{traceback.format_exc().rstrip()}")
        record.update(chosen_map=-1, fallback=0, source_risk="", target_risk="",
                      status=f"error:{type(exc).__name__}")
    record["wall_time"] = time.perf_counter() - start  # in-memory only; not serialized
    return record


def _summarize(records: list[dict]) -> dict:
    cells: dict[tuple, list[dict]] = {}
    for r in records:
        cells.setdefault((r["learner"], r["n"], r["m"]), []).append(r)
    out = []
    for (learner, n, m), rows in sorted(cells.items()):
        ok = [r for r in rows if r["status"] == "ok"]
        risks = sorted(float(r["target_risk"]) for r in ok)
        cell = {
            "learner": learner, "n": n, "m": m,
            "trials": len(rows), "failed": len(rows) - len(ok),
            "selection_frequency": Counter(str(r["chosen_map"]) for r in ok),
        }
        if risks:
            cell["target_risk_median"] = median(risks)
            if len(risks) >= 4:
                q = quantiles(risks, n=4)
                cell["target_risk_q1"], cell["target_risk_q3"] = q[0], q[2]
        out.append(cell)
    return {"schema_version": SCHEMA_VERSION, "cells": out}


def cmd_sweep(args) -> int:
    problem = _load_problem(args)
    cfg = _learner_config(args)
    grid_n = _int_list(args.grid_n, "--grid-n")
    grid_m = _int_list(args.grid_m, "--grid-m") if args.grid_m else [0]
    if not grid_n or args.trials < 1:
        raise UsageError("grid must be non-empty and trials >= 1")
    # The rules cmd_train applies to its inputs, checked before any trial runs.
    min_rows, wanted = REGIMES[args.regime]
    if min(grid_n) < min_rows:
        raise UsageError(f"regime {args.regime!r} needs --grid-n sizes of at least {min_rows}")
    if not wanted and args.grid_m:
        raise UsageError(f"regime {args.regime!r} takes no --grid-m")
    if wanted and min(grid_m, default=0) < 1:
        raise UsageError(f"regime {args.regime!r} needs --grid-m sizes of at least 1")
    if args.eval_n < 1:
        raise UsageError("--eval-n must be at least 1")
    seed = args.seed
    cells = [(n, m) for n in grid_n for m in grid_m]
    jobs = [(ci, trial, n, m) for ci, (n, m) in enumerate(cells) for trial in range(args.trials)]

    workers = _threads()
    _log(f"sweep: {len(cells)} cells x {args.trials} trials on {workers} workers")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_sweep_trial, problem, args.regime, cfg, n, m, args.eval_n, seed, ci, trial)
            for ci, trial, n, m in jobs
        ]
        records = [f.result() for f in futures]
    records.sort(key=lambda r: (r["learner"], r["n"], r["m"], r["trial"]))
    total_time = sum(r.pop("wall_time") for r in records)

    with open(args.out_csv, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        w.writeheader()
        w.writerows(records)
    write_json(_summarize(records), args.out_json)
    _log(f"{len(records)} records -> {args.out_csv}; total trial time {total_time:.1f}s")
    return 0


def cmd_plot(args) -> int:
    path = _require_file(args.records, "records CSV")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != list(SWEEP_FIELDS):
            raise UsageError(f"records CSV has unexpected columns {reader.fieldnames!r}")
        records = list(reader)
    with _caller_input():  # rendering parses the numeric fields of the records
        svg = render_sweep_svg(records)
    with open(args.out, "w") as fh:
        fh.write(svg)
    _log(f"plot written to {args.out}")
    return 0


def _parse_family(spec: str, seed: SeedSpec) -> FeatureFamily:
    try:
        if spec.startswith("cor:"):
            d, k = (int(v) for v in spec[4:].split(","))
            return cor_family(d, k)
        if spec.startswith("proj:"):
            d, k, count = (int(v) for v in spec[5:].split(","))
            return proj_family_random(d, k, count, seed.substream(1))
    except ValueError as exc:
        raise UsageError(f"bad family spec {spec!r}: {exc}") from exc
    if os.path.exists(spec):
        with _caller_input():
            return FeatureFamily.load(spec)
    raise UsageError(f"bad family spec {spec!r} (expected cor:D,K | proj:D,K,COUNT | path)")


def cmd_ddprobe(args) -> int:
    seed = args.seed
    family = _parse_family(args.family, seed)
    sizes = _int_list(args.sizes, "--sizes")
    if not sizes or min(sizes) < 1:
        raise UsageError("--sizes must list positive integers")
    with _caller_input():  # the caller's family may not admit the bound, e.g. K > D
        dd_upper = family.dd_upper()
    rng = seed.rng(2)
    dim = family.input_dim
    quads = [ComparerQuery(*(rng.random(dim) for _ in range(4))) for _ in range(args.quads)]
    results = []
    for size in sizes:
        if size > len(quads):
            results.append({"size": size, "status": "none", "note": "size exceeds pool"})
            continue
        verdict = shattering_search(family, quads, size, max_candidates=args.budget)
        row = {"size": size, "status": verdict.status, "candidates_checked": verdict.candidates_checked}
        if verdict.witness is not None:
            row["witness"] = list(verdict.witness)
        results.append(row)
    report = {
        "schema_version": SCHEMA_VERSION,
        "family": {"provenance": family.provenance, "size": len(family), "D": dim, "K": family.output_dim},
        "dd_upper": dd_upper,
        "quad_count": len(quads),
        "results": results,
    }
    write_json(report, args.out)
    print(json.dumps({"dd_upper": report["dd_upper"], "results": results}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sirmnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_args(sp):
        sp.add_argument("--panel", choices=("a", "b", "c"), help="built-in planar problem")
        sp.add_argument("--spec", help="path to a problem JSON")
        sp.add_argument("--flip-prob", type=float, default=0.0, help="label noise for --panel scenes")

    def add_learner_args(sp):
        sp.add_argument("--k", type=_count, default=0, help="fixed neighbor count (default: ceil(ln n)^2)")
        sp.add_argument("--lambda", dest="lambda_", type=float, default=4.0, help="contraction penalty weight")
        sp.add_argument("--epsilon-mode", default="relative", help="paper | relative | fixed:v")

    sp = sub.add_parser("scenario", help="generate problem JSON and sampled CSVs")
    add_problem_args(sp)
    sp.add_argument("--n", type=_count, default=2000, help="source sample size")
    sp.add_argument("--m", type=_count, default=0, help="target sample size")
    sp.add_argument("--eval-n", type=_count, default=0, help="held-out labeled target sample size")
    sp.add_argument("--seed", type=_seed, default=SeedSpec(0))
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_scenario)

    sp = sub.add_parser("train", help="run one learner on CSV inputs")
    add_problem_args(sp)
    add_learner_args(sp)
    sp.add_argument("--regime", choices=REGIMES, required=True)
    sp.add_argument("--source", required=True, help="labeled source CSV")
    sp.add_argument("--target", help="target CSV (unlabeled or labeled per regime)")
    sp.add_argument("--eval", help="labeled target CSV for held-out risk")
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sweep", help="grid of seeded trials, parallel across trials")
    add_problem_args(sp)
    add_learner_args(sp)
    sp.add_argument("--regime", choices=REGIMES, required=True)
    sp.add_argument("--grid-n", required=True, help="comma-separated source sizes")
    sp.add_argument("--grid-m", default="", help="comma-separated target sizes")
    sp.add_argument("--trials", type=_count, default=20)
    sp.add_argument("--eval-n", type=_count, default=2000)
    sp.add_argument("--seed", type=_seed, default=SeedSpec(0))
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--out-json", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("plot", help="render a sweep records CSV to SVG")
    sp.add_argument("--records", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("ddprobe", help="empirical shattering search with the analytic bound")
    sp.add_argument("--family", required=True, help="cor:D,K | proj:D,K,COUNT | family JSON path")
    sp.add_argument("--quads", type=_count, default=30)
    sp.add_argument("--sizes", default="1,2,3,4,5")
    sp.add_argument("--budget", type=_count, default=200_000)
    sp.add_argument("--seed", type=_seed, default=SeedSpec(0))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ddprobe)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # internal failure
        _log(f"internal error: {type(exc).__name__}: {exc}\n{traceback.format_exc().rstrip()}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
