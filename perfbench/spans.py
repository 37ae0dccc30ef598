"""Span tracing of the library's public functions, from outside the library.

While a :class:`Tracer` is installed, every public function of the traced
modules is replaced by a wrapper at every name the library's modules bind
it to (``sirmnn.estimators.predict_batch`` as well as
``sirmnn.knn.predict_batch``), and ``KnnClassifier`` construction is
wrapped on the class. A wrapper records one span (id, parent, name, start,
end, op id) per call and adds the counts the call's arguments or result
imply. Spans stay in memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("core", "featuremaps", "knn", "estimators", "learners", "scenarios")
# Classes whose construction is a layer boundary, wrapped at __post_init__.
CLASS_SPANS = {"knn": ("KnnClassifier",)}
LEARNERS = ("direct_generalize_nn", "presrv_contract_nn", "feature_validate")


def _count_knn(add, a, result):
    queries = len(a["queries"])
    add("knn.queries", queries)
    add("knn.dist_evals", queries * len(a["c"].train))


def _count_learner(add, a, result):
    add("learners.calls", 1)
    add("learners.maps_scored", len(result.diagnostics))
    add("learners.maps_admitted", sum(bool(d.admitted) for d in result.diagnostics))
    add("learners.fallbacks", int(result.fallback))


# Counts implied by a call's arguments or result, keyed by span name.
COUNTERS = {
    "knn.predict_batch": _count_knn,
    "featuremaps.apply_batch": lambda add, a, r: add("featuremaps.points_mapped", len(a["points"])),
    "featuremaps.shattering_search": lambda add, a, r: add("featuremaps.candidates_checked", r.candidates_checked),
    "estimators.beta_estimate": lambda add, a, r: add(
        "estimators.beta_pairs", len(a["source_points"]) * len(a["target_points"])
    ),
    "scenarios.sample": lambda add, a, r: add("scenarios.points_sampled", a["n"]),
    "scenarios.sample_unlabeled": lambda add, a, r: add("scenarios.points_sampled", a["n"]),
    "scenarios.certify": lambda add, a, r: add("scenarios.certify_full", int(r.preserves == "pass")),
    **{f"learners.{name}": _count_learner for name in LEARNERS},
}


class Tracer:
    """In-memory span and counter store; thread-safe."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record a span around the block; `op` starts a new op's root span."""
        st = self._stack()
        if op is not None:
            self._local.op = op
        sid = next(self._ids)
        parent = st[-1] if st else None
        st.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            st.pop()
            self.spans.append((sid, parent, name, start, end, getattr(self._local, "op", None)))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.add, bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, package: str = "sirmnn"):
        """Wrap the traced functions for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        originals = {}  # id(original) -> wrapper
        restore = []  # (owner, attribute, original)
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name in CLASS_SPANS.get(layer, ()):
                cls = getattr(mod, cls_name)
                hook = cls.__dict__["__post_init__"]
                restore.append((cls, "__post_init__", hook))
                setattr(cls, "__post_init__", self._wrap(f"{layer}.{cls_name}", hook))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)])
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _p, _n, start, end, _op in self.spans}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, op in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end, "op": op}))
                fh.write("\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, source), summed over the traced ops.

    source is "spans" for timings and call counts, "computed" for counts
    derived from call arguments or results.
    """
    self_t = tracer.self_times()
    calls = defaultdict(int)
    self_by_name = defaultdict(float)
    op_wall = 0.0
    for sid, _parent, name, start, end, _op in tracer.spans:
        calls[name] += 1
        self_by_name[name] += self_t[sid]
        if name == "bench.op":
            op_wall += end - start
    layer_self = {layer: sum(v for k, v in self_by_name.items() if k.split(".")[0] == layer) for layer in LAYERS}
    c = tracer.counts
    out = {}

    def put(name, value, unit, source="spans"):
        out[name] = (float(value), unit, source)

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    put("knn.self_frac", layer_self["knn"] / op_wall if op_wall else 0.0, "fraction")
    for name in ("knn.predict_batch", "knn.KnnClassifier", "featuremaps.apply_batch", "core.split_fractions"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_by_name[name], "s")
    for name in (
        "featuremaps.shattering_search",
        "estimators.source_loss", "estimators.source_margin", "estimators.target_margin",
        "estimators.empirical_risk", "estimators.beta_estimate",
        *(f"learners.{n}" for n in LEARNERS),
        "scenarios.sample", "scenarios.certify", "scenarios.twin_targets", "scenarios.perturb_source",
    ):
        put(f"{name}.self_s", self_by_name[name], "s")
    dist_evals = c["knn.dist_evals"]
    put("knn.queries", c["knn.queries"], "count", "computed")
    put("knn.dist_evals", dist_evals, "count", "computed")
    put("knn.ns_per_dist_eval", 1e9 * self_by_name["knn.predict_batch"] / dist_evals if dist_evals else 0.0, "ns", "computed")
    put("featuremaps.points_mapped", c["featuremaps.points_mapped"], "count", "computed")
    put("featuremaps.candidates_checked", c["featuremaps.candidates_checked"], "count", "computed")
    put("estimators.beta_pairs", c["estimators.beta_pairs"], "count", "computed")
    scored, learner_calls = c["learners.maps_scored"], c["learners.calls"]
    put("learners.maps_scored", scored, "count", "computed")
    put("learners.admitted_frac", c["learners.maps_admitted"] / scored if scored else 0.0, "fraction", "computed")
    put("learners.fallback_frac", c["learners.fallbacks"] / learner_calls if learner_calls else 0.0, "fraction", "computed")
    put("scenarios.points_sampled", c["scenarios.points_sampled"], "count", "computed")
    certifies = calls["scenarios.certify"]
    put("scenarios.certify_full_frac", c["scenarios.certify_full"] / certifies if certifies else 0.0, "fraction", "computed")
    return out
