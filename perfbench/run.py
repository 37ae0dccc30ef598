"""Closed-loop benchmark of sirmnn, run from the root of a source checkout.

    python3 perfbench/run.py --workload panel_sweep --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Two client threads each start their next op only after the previous one
returns. With --trace 0 the run measures end-to-end metrics for --seconds.
With --trace 1 it runs a fixed list of ops twice, untraced and then traced,
and reports per-layer metrics from the spans. Every op's outputs are hashed
and checked: against committed reference digests when the seed matches,
against the reference implementations in oracle.py for a few ops, and
against invariants for all. The last line of stdout is one JSON object;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the client threads are the only parallelism.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import importlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from spans import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests")

CLIENTS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 15
# A timed run keeps starting ops past --seconds until this many have
# started, so that at least ten latencies lie beyond p90.
MIN_OPS = 100
# Wall seconds of one rotation of ops on two clients at the commit that
# added the benchmark; sizes the fixed op list of a traced run.
ROTATION_SECONDS = {"panel_sweep": 3.5, "wide_family": 1.2, "analysis_scan": 2.3}


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    start: float
    end: float
    cpu_s: float
    digest: str | None = None
    errors: list[str] = field(default_factory=list)


@dataclass
class Phase:
    ops: dict[int, OpResult]
    start: float
    end: float
    kept: dict[int, object]

    @property
    def completed(self) -> list[OpResult]:
        return [r for r in self.ops.values() if r.digest is not None]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_ops(wl, limit: int | None = None, deadline: float | None = None, keep=(), tracer=None) -> Phase:
    """Closed loop over op indices 0, 1, ... until `limit`, or until `deadline` once MIN_OPS have started."""
    next_index = itertools.count()
    lock = threading.Lock()
    ops: dict[int, OpResult] = {}
    kept: dict[int, object] = {}

    def client():
        while True:
            with lock:
                i = next(next_index)
            if (limit is not None and i >= limit) or (
                deadline is not None and i >= MIN_OPS and time.perf_counter() >= deadline
            ):
                return
            res = OpResult(time.perf_counter(), 0.0, 0.0)
            cpu0 = time.thread_time()
            try:
                if tracer is None:
                    payload, artefact = wl.op(i)
                else:
                    with tracer.span("bench.op", op=i):
                        payload, artefact = wl.op(i)
            except Exception:
                res.errors.append(f"op {i} raised:\n{traceback.format_exc()}")
            else:
                res.end, res.cpu_s = time.perf_counter(), time.thread_time() - cpu0
                try:
                    res.errors += wl.check(artefact, full=False)
                except Exception:
                    res.errors.append(f"op {i} check raised:\n{traceback.format_exc()}")
                res.digest = _digest(payload)
                if i in keep:
                    kept[i] = artefact
            if not res.end:
                res.end = time.perf_counter()
            ops[i] = res

    start = time.perf_counter()
    threads = [threading.Thread(target=client, name=f"client-{c}") for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max((r.end for r in ops.values()), default=time.perf_counter())
    return Phase(ops, start, end, kept)


def set_up(workload: str, seed: int):
    """Import sirmnn afresh and build the workload, SETUP_REPEATS times.

    Returns the last workload built and the median set-up time.
    """
    factory = WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "sirmnn" or m.startswith("sirmnn.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        sm = importlib.import_module("sirmnn")
        wl = factory(sm, seed)
        times.append(time.perf_counter() - t0)
    if not os.path.abspath(sm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported sirmnn from {sm.__file__}, not from {SRC}")
    return wl, statistics.median(times)


def verify(wl, phase: Phase, reference: dict[str, str] | None) -> None:
    """Digest comparison and reference checks; appends errors to op results."""
    for i, res in phase.ops.items():
        want = reference.get(str(i)) if reference else None
        if res.digest is not None and want is not None and res.digest != want:
            res.errors.append(f"op {i}: output digest {res.digest} differs from reference {want}")
    for i, artefact in phase.kept.items():
        try:
            phase.ops[i].errors += wl.check(artefact, full=True)
        except Exception:
            phase.ops[i].errors.append(f"op {i} reference check raised:\n{traceback.format_exc()}")


def load_reference(path: str | None, workload: str, seed: int, explicit: bool) -> dict[str, str] | None:
    if path is None or (not explicit and not os.path.exists(path)):
        return None
    with open(path) as fh:
        ref = json.load(fh)
    if ref["workload"] != workload or ref["seed"] != seed:
        if explicit:
            raise SystemExit(f"error: {path} holds digests of {ref['workload']} seed {ref['seed']}")
        return None
    return ref["digests"]


def _git_commit() -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "client_threads": CLIENTS,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    done = phase.completed
    lat = sorted(r.end - r.start for r in done)
    failed = sum(1 for r in phase.ops.values() if r.errors)
    q = statistics.quantiles(lat, n=10) if len(lat) >= 2 else [lat[0] if lat else 0.0] * 9
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / phase.wall_s if done else 0.0, "1/s"),
        "op_s_p50": (statistics.median(lat) if lat else 0.0, "s"),
        "op_s_p90": (q[8], "s"),
        "ok_frac": ((len(phase.ops) - failed) / max(1, len(phase.ops)), "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(wl, workload: str, seed: int, seconds: float, keep, reference):
    rotations = max(1, round(seconds / (2 * ROTATION_SECONDS[workload])))
    limit = len(wl.rotation) * rotations
    plain = run_ops(wl, limit=limit, keep=keep)
    tracer = Tracer()
    with tracer.installed():
        traced = run_ops(wl, limit=limit, tracer=tracer)
    verify(wl, plain, reference)
    verify(wl, traced, reference)
    run_errors = []
    for i, res in traced.ops.items():
        other = plain.ops[i].digest
        if res.digest != other:
            res.errors.append(f"op {i}: traced digest {res.digest} differs from untraced {other}")
    negative = [sid for sid, v in tracer.self_times().items() if v < -1e-9]
    if negative:
        run_errors.append(f"{len(negative)} spans have negative self time")
    metrics = layer_metrics(tracer)
    metrics["bench.op_wait_s"] = (sum((r.end - r.start) - r.cpu_s for r in plain.completed), "s", "measured")
    metrics["bench.trace_overhead_frac"] = (1.0 - plain.wall_s / traced.wall_s, "fraction", "measured")
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"{workload}-seed{seed}.spans.jsonl")
    tracer.write_jsonl(spans_path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    knn_frac = metrics["knn.self_frac"][0]
    print(f"knn self-time share of op time: {100 * knn_frac:.1f}% over {limit} ops "
          "(profile before this benchmark: argsort alone was 77-92% of k-NN time)")
    return [plain, traced], metrics, run_errors


def run_one(args) -> int:
    wl, setup_s = set_up(args.workload, args.seed)
    explicit = args.digests is not None
    ref_path = args.digests or os.path.join(DIGESTS, f"{args.workload}.json")
    reference = load_reference(ref_path, args.workload, args.seed, explicit)
    keep = {i for i in range(len(wl.rotation)) if i % 3 == args.seed % 3}
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"digests: {'checked against ' + os.path.relpath(ref_path, ROOT) if reference else 'no reference for this seed'}")

    if args.trace:
        phases, metrics, run_errors = traced_run(wl, args.workload, args.seed, args.seconds, keep, reference)
    else:
        phase = run_ops(wl, deadline=time.perf_counter() + args.seconds, keep=keep)
        rss = _peak_rss_mb()  # before the reference checks, which allocate on their own
        verify(wl, phase, reference)
        metrics = {k: (v, u, "measured") for k, (v, u) in end_to_end(phase, setup_s, rss).items()}
        phases, run_errors = [phase], []

    attempted = sum(len(p.ops) for p in phases)
    errors = [e for p in phases for i in sorted(p.ops) for e in p.ops[i].errors]
    failed = sum(1 for p in phases for r in p.ops.values() if r.errors)
    correct = not errors and not run_errors and attempted > 0
    for msg in (run_errors + errors)[:10]:
        print(msg, file=sys.stderr)
    main_phase = phases[0]
    n_done = len(main_phase.completed)
    for name, (value, unit, source) in metrics.items():
        note = f"  (n={n_done} ops)" if name.startswith("op_s_") else ("  [computed]" if source == "computed" else "")
        print(f"{args.workload:14s} {name:40s} {value:14.6g} {unit}{note}")

    digests = {str(i): main_phase.ops[i].digest for i in sorted(main_phase.ops) if main_phase.ops[i].digest}
    if args.write_digests:
        with open(args.write_digests, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "digests": digests}, fh, indent=0, sort_keys=True)
            fh.write("\n")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine, "attempted": attempted, "failed": failed, "completed": n_done,
            "metrics": {k: {"value": v, "unit": u, "source": s} for k, (v, u, s) in metrics.items()},
            "errors": (run_errors + errors)[:50], "digests": digests,
        }, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _s) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digests", help="compare op digests with this file (default: the committed reference)")
    p.add_argument("--write-digests", help="write this run's op digests to this file")
    args = p.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r} (expected one of {', '.join(WORKLOADS)} or all)")
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "sirmnn", "__init__.py")):
        print(f"error: no sirmnn sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
