"""Spans around the calls into each cewave layer, installed from outside.

The tracer wraps public functions of the package's modules.  It patches
every binding of a traced function inside the package (``cewave.cli``
imports ``classify``, ``cewave.shock1d`` imports ``scalar_system`` and
``crossing_time``, ...), so calls through any module are seen, and
``restore`` puts every original back.  A traced name that no longer
exists is recorded in ``absent`` rather than raising.

Each span is (name, start, end, parent span, job index, failed), kept in
flat arrays in memory.  ``Jet3`` arithmetic is only counted: a span per
operation would swamp the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute path); names are the per-layer metric prefixes
SPANS = {
    "cli.main": ("cli", "main"),
    "lagrangians.jet_at": ("lagrangians", "LagrangianModel.jet_at"),
    "lagrangians.value_at": ("lagrangians", "LagrangianModel.value_at"),
    "lagrangians.guard_ok": ("lagrangians", "LagrangianModel.guard_ok"),
    "ce.classify": ("ce", "classify"),
    "ce.strong_ce_residuals": ("ce", "strong_ce_residuals"),
    "ce.general_ce_residuals": ("ce", "general_ce_residuals"),
    "ce.data_from_model": ("ce", "data_from_model"),
    "ce.scalar_ce_residual": ("ce", "scalar_ce_residual"),
    "ce.coupling_residuals": ("ce", "coupling_residuals"),
    "charsys.fresnel_roots": ("charsys", "fresnel_roots"),
    "charsys.fresnel_scan_rows": ("charsys", "fresnel_scan_rows"),
    "charsys.scalar_system": ("charsys", "scalar_system"),
    "charsys.write_scan_csv": ("charsys", "write_scan_csv"),
    "shock1d.simple_wave_construct": ("shock1d", "simple_wave_construct"),
    "shock1d.moc_solve": ("shock1d", "moc_solve"),
    "shock1d.upwind_solve": ("shock1d", "upwind_solve"),
    "shock1d.write_characteristics_csv": ("shock1d", "write_characteristics_csv"),
    "rays.trace": ("rays", "trace"),
    "rays.transport_amplitude": ("rays", "transport_amplitude"),
    "rays.crossing_time": ("rays", "crossing_time"),
    "rays.write_ray_csv": ("rays", "write_ray_csv"),
    "gravity.kernel_survey": ("gravity", "kernel_survey"),
    "gravity.kernel_dim": ("gravity", "kernel_dim"),
    "gravity.einstein_operator": ("gravity", "einstein_operator"),
    "gravity.quadratic_operator": ("gravity", "quadratic_operator"),
    "gravity.fr_operator": ("gravity", "fr_operator"),
}

JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__", "compose",
           "sqrt")

OPERATORS = ("gravity.einstein_operator", "gravity.quadratic_operator",
             "gravity.fr_operator")


def _count_points(counts, args, result):
    counts["ce.points.total"] += result.counts["total"]
    counts["ce.points.evaluated"] += result.counts["evaluated"]


def _count_steps(counts, args, result):
    counts["rays.trace.steps"] += len(result.states) - 1


def _count_backgrounds(counts, args, result):
    counts["charsys.backgrounds"] += len(args[1])


_HOOKS = {"ce.classify": _count_points, "rays.trace": _count_steps,
          "charsys.fresnel_scan_rows": _count_backgrounds}

# (metric, unit) printed by a traced run, in order
PER_LAYER = [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
             ("cli.bytes_out", "bytes")]
PER_LAYER += [(f"lagrangians.{f}.{k}", u) for f in ("jet_at", "value_at", "guard_ok")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("jets.Jet3.ops", "count")]
PER_LAYER += [(f"ce.{f}.{k}", u) for f in ("classify", "strong_ce_residuals",
                                           "general_ce_residuals", "data_from_model",
                                           "scalar_ce_residual", "coupling_residuals")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("ce.evaluated_ratio", "ratio"), ("ce.jet_at_per_point", "ratio"),
              ("ce.value_at_per_point", "ratio"),
              ("charsys.fresnel_roots.calls", "count"),
              ("charsys.fresnel_roots.self_s", "s"),
              ("charsys.fresnel_roots.failed", "count"),
              ("charsys.fresnel_scan_rows.self_s", "s"),
              ("charsys.scalar_system.calls", "count"),
              ("charsys.scalar_system.self_s", "s"),
              ("charsys.write_scan_csv.self_s", "s"),
              ("charsys.fresnel_roots_per_background", "ratio")]
PER_LAYER += [(f"shock1d.{f}.{k}", u) for f in ("simple_wave_construct", "moc_solve",
                                                "upwind_solve")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("shock1d.write_characteristics_csv.self_s", "s"),
              ("rays.trace.calls", "count"), ("rays.trace.self_s", "s"),
              ("rays.trace.steps", "count"), ("rays.rk4_step_us", "us")]
PER_LAYER += [(f"rays.{f}.{k}", u) for f in ("transport_amplitude", "crossing_time")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("rays.write_ray_csv.self_s", "s")]
PER_LAYER += [(f"gravity.{f}.{k}", u) for f in ("kernel_survey", "kernel_dim", "operator")
              for k, u in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [("gravity.assembly_share", "ratio"), ("trace.overhead_s", "s")]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_job = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installing and removing wrappers ---------------------------------------

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "cewave" or n.startswith("cewave.")]
        for span, (module, path) in SPANS.items():
            owner = importlib.import_module(f"cewave.{module}")
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.absent.append(span)
                continue
            wrapper = self._span_wrapper(span, original, _HOOKS.get(span))
            if outer:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapper)
                continue
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        jet3 = importlib.import_module("cewave.jets").Jet3
        for op in JET_OPS:
            if op in vars(jet3):
                self._patch(jet3, op, self._counter("jets.Jet3.ops", vars(jet3)[op]))
            else:
                self.absent.append(f"jets.Jet3.{op}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, span: str, fn, hook):
        nid = len(self.names)
        self.names.append(span)
        name, parent, job, failed = self.name, self.parent, self.job, self.failed
        start, end, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.current_job)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # --- per-layer metrics ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.int32),
                "failed": np.frombuffer(self.failed, dtype=np.int8),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def layer_metrics(self, job_families: list[str],
                      extra: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric for this pass; ``extra`` supplies the
        values measured outside the spans (bytes written, overhead)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        total_s = np.bincount(name, weights=dur, minlength=k)
        failed = np.bincount(name, weights=a["failed"], minlength=k)
        ids = {n: i for i, n in enumerate(self.names)}

        def get(arr, span):
            return float(arr[ids[span]]) if span in ids else 0.0

        def under(ancestor: str) -> np.ndarray:
            flag = name == ids.get(ancestor, -1)
            while True:
                grown = flag | (has_parent & flag[np.maximum(parent, 0)])
                if np.array_equal(grown, flag):
                    return flag
                flag = grown

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        in_classify = under("ce.classify")
        fresnel_jobs = np.array([f == "fresnel" for f in job_families] + [False])
        out: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "calls" and span in SPANS:
                out[metric] = get(calls, span)
            elif field == "self_s" and span in SPANS:
                out[metric] = get(self_s, span)
        for field, arr in (("calls", calls), ("self_s", self_s)):
            out[f"gravity.operator.{field}"] = sum(get(arr, s) for s in OPERATORS)
        c = self.counts
        out["jets.Jet3.ops"] = float(c["jets.Jet3.ops"])
        out["ce.evaluated_ratio"] = ratio(c["ce.points.evaluated"],
                                          c["ce.points.total"])
        out["ce.jet_at_per_point"] = ratio(
            np.sum(in_classify & (name == ids.get("lagrangians.jet_at", -1))),
            c["ce.points.evaluated"])
        out["ce.value_at_per_point"] = ratio(
            np.sum(in_classify & (name == ids.get("lagrangians.value_at", -1))),
            c["ce.points.total"])
        out["charsys.fresnel_roots.failed"] = get(failed, "charsys.fresnel_roots")
        out["charsys.fresnel_roots_per_background"] = ratio(
            np.sum(fresnel_jobs[a["job"]]
                   & (name == ids.get("charsys.fresnel_roots", -1))),
            c["charsys.backgrounds"])
        out["rays.trace.steps"] = float(c["rays.trace.steps"])
        out["rays.rk4_step_us"] = ratio(get(self_s, "rays.trace") * 1e6,
                                        c["rays.trace.steps"])
        out["gravity.assembly_share"] = ratio(
            sum(get(total_s, s) for s in OPERATORS),
            get(total_s, "gravity.kernel_survey"))
        out.update(extra)
        return {metric: float(out[metric]) for metric, _ in PER_LAYER}
