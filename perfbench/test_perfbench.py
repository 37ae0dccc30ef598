"""Checks of the benchmark itself: run with `python -m pytest perfbench`.

The sweep workloads must replay exactly the trials `sirmnn sweep` runs,
and tracing must observe the library without changing what it computes.
"""

import csv
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sirmnn as sm  # noqa: E402
from sirmnn import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SMALL = {"n": 200, "eval_n": 200, "m_of": {"source-only": 0, "unlabeled": 20, "validate": 10}}


def _small(mix, problems):
    return workloads.SweepWorkload(sm, problems, mix, seed=5, **SMALL)


def _cli_sweep_bytes(tmp_path, kind, trials, problems_spec) -> bytes:
    name, regime = kind
    m = SMALL["m_of"][regime]
    out_csv = tmp_path / f"{name}-{regime}.csv"
    argv = ["sweep", *problems_spec(name), "--regime", regime, "--grid-n", str(SMALL["n"]),
            "--trials", str(trials), "--eval-n", str(SMALL["eval_n"]), "--seed", "5",
            "--out-csv", str(out_csv), "--out-json", str(tmp_path / "summary.json")]
    if m:
        argv += ["--grid-m", str(m)]
    assert cli.main(argv) == 0
    return out_csv.read_bytes()


def _bench_csv_bytes(records) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.DictWriter(buf, fieldnames=cli.SWEEP_FIELDS)
    w.writeheader()
    w.writerows(records)
    return buf.getvalue().encode()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("workload", ["panel_sweep", "wide_family"])
def test_sweep_records_equal_cli_rows(workload, threads, tmp_path, monkeypatch):
    """Two rotations of the workload's own mix, regrouped per kind, equal `sirmnn sweep` CSVs."""
    monkeypatch.setenv("SIRM_THREADS", threads)
    full = workloads.WORKLOADS[workload](sm, 5)
    wl = _small(full.rotation.kinds, full.problems)
    by_kind = {}
    for i in range(2 * len(wl.rotation)):
        record, _ = wl.record(i)
        by_kind.setdefault(wl.rotation.locate(i)[0], []).append(record)

    def spec(name):
        return ["--spec", workloads.WIDE_PROBLEM] if name == "wide" else ["--panel", name]

    for kind, records in by_kind.items():
        records.sort(key=lambda r: r["trial"])
        assert [r["trial"] for r in records] == list(range(len(records)))
        assert _bench_csv_bytes(records) == _cli_sweep_bytes(tmp_path, kind, len(records), spec), kind


def _digests(phase):
    return {i: r.digest for i, r in phase.ops.items()}


@pytest.mark.parametrize("name", ["panel_sweep", "analysis_scan"])
def test_traced_run_matches_untraced(name):
    if name == "panel_sweep":
        full = workloads.panel_sweep(sm, 3)
        wl = _small(full.rotation.kinds, full.problems)
    else:
        wl = workloads.analysis_scan(sm, 3)
    limit = len(wl.rotation)
    plain = run.run_ops(wl, limit=limit)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_ops(wl, limit=limit, tracer=tracer)
    assert sm.knn.predict_batch is sm.estimators.predict_batch  # wrappers removed again
    assert all(not r.errors for r in [*plain.ops.values(), *traced.ops.values()])
    assert len(plain.ops) == limit and _digests(traced) == _digests(plain)
    assert min(tracer.self_times().values()) >= -1e-9
    ops = {s[5] for s in tracer.spans}
    assert ops == set(range(limit))
    metrics = layer_metrics(tracer)
    calls = metrics["knn.predict_batch.calls"][0]
    if name == "analysis_scan":
        assert calls == 0 and metrics["featuremaps.candidates_checked"][0] > 0
    else:
        assert calls > 0 and metrics["knn.dist_evals"][0] > 0 and metrics["learners.maps_scored"][0] == 2 * limit


def test_oracle_flags_a_wrong_risk():
    wl = _small([("c", "validate")], workloads.panels(sm))
    _, artefact = wl.op(0)
    assert wl.check(artefact, full=True) == []
    record = dict(artefact[-1], target_risk="0.999999")
    assert wl.check((*artefact[:-1], record), full=True)
