"""Span tracing of damage_sim's layers from outside the package.

``install`` replaces each listed public function (or method) with a
wrapper that records a span, in every ``damage_sim`` module namespace that
holds a reference to it, so calls made through ``from .x import f`` are
seen as well.  ``uninstall`` restores the originals.  Spans stay in memory
until ``Tracer.dump`` writes them out.

A span is (id, layer, start, end, parent id, run id, self time), where the
self time is the span's duration minus the durations of its direct
children; calls are strictly nested in this single-threaded program, so
the children cover disjoint parts of their parent's interval.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _damage_counts(result, args, kwargs):
    report = result[1]
    return {"fista_iters": report.inner_iterations,
            "newton_iters": report.newton_iterations}


def _eval_points(result, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"points": int(np.size(x))}


def _csv_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


@dataclass(frozen=True)
class Layer:
    module: str                    # damage_sim submodule
    attr: str                      # "func" or "Class.method"
    stats: tuple                   # emitted statistics, see layer_metrics
    counter: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


STEP = ("calls", "self_s", "failed", "p50_ms", "p99_ms")   # once per step
CALL = ("calls", "self_s", "failed")
SELF = ("self_s",)

LAYERS = (
    Layer("cli", "run_scenario", SELF),
    Layer("cli", "export_report", SELF),
    Layer("config", "load_scenario", SELF),
    Layer("forcing", "local_time_means", SELF),
    Layer("weak_stepper", "run_weak", SELF),
    Layer("weak_stepper", "assemble_damage_subproblem", SELF),
    Layer("weak_stepper", "damage_step", STEP + ("fista_iters", "newton_iters"),
          _damage_counts),
    Layer("weak_stepper", "momentum_step", STEP),
    Layer("strong_galerkin", "run_strong", SELF),
    Layer("strong_galerkin", "step_regularized", STEP),
    Layer("strong_galerkin", "_stage_solve", CALL),
    Layer("strong_galerkin", "chi_from_omega", CALL),
    Layer("strong_galerkin", "StrongOperators.modal_matrices", CALL),
    Layer("regularization", "RegularizedFunction.eval_all", CALL + ("points",),
          _eval_points),
    Layer("regularization", "make_W_delta", SELF),
    Layer("discretization", "neumann_eigenbasis", SELF),
    Layer("discretization", "assemble_operators", SELF),
    Layer("diagnostics", "energy", STEP),
    Layer("diagnostics", "dissipation", STEP),
    Layer("diagnostics", "discrete_edi_check", SELF),
    Layer("diagnostics", "uedi_check", SELF),
    Layer("diagnostics", "strong_energy_balance_residual", SELF),
    Layer("diagnostics", "rei_check", SELF),
    Layer("trajectory", "write_csv", CALL + ("bytes",), _csv_bytes),
    Layer("trajectory", "Trajectory.save", SELF),
)

# Whole-pass figures of the traced run: the traced pass time, its excess
# over the untraced pass (tracing overhead), the part of the traced pass no
# layer's self time covers, and the number of spans recorded per pass.
TRACE_METRICS = (("trace.pass_s", "s"), ("trace.overhead_s", "s"),
                 ("trace.unattributed_s", "s"), ("trace.spans", "count"))

UNITS = {"calls": "count", "failed": "count", "self_s": "s", "p50_ms": "ms",
         "p99_ms": "ms", "fista_iters": "count", "newton_iters": "count",
         "points": "count", "bytes": "B"}


def metric_units() -> dict:
    """Every per-layer metric name the traced run emits, with its unit."""
    out = {f"{layer.name}.{stat}": UNITS[stat]
           for layer in LAYERS for stat in layer.stats}
    out.update(TRACE_METRICS)
    return out


class Tracer:
    def __init__(self):
        self.spans = []            # (id, layer, start, end, parent, run, self)
        self.counts = []           # (span id, {counter: value})
        self.failed = []           # span ids that raised
        self.run_id = 0
        self._next_id = 0
        self._stack = []           # [span id, start, child time]
        self._undo = []

    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed.append(sid)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.spans.append((sid, layer.name, frame[1], end, parent,
                                     tracer.run_id, dur - frame[2]))
            if layer.counter is not None:
                tracer.counts.append((sid, layer.counter(result, args, kwargs)))
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module("damage_sim." + layer.module)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(layer, orig))
                self._undo.append((owner, meth, orig))
                continue
            orig = getattr(mod, layer.attr)
            wrapped = self._wrap(layer, orig)
            for name, m in list(sys.modules.items()):
                if name != "damage_sim" and not name.startswith("damage_sim."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "layer", "start", "end", "parent",
                                  "run", "self_s"],
                       "spans": sorted(self.spans),
                       "failed": self.failed,
                       "counts": self.counts}, fh)


def per_pass(by_run: dict, run_scenario: dict) -> float:
    """Per-pass estimate of a per-run quantity: the sum over scenarios of
    its median over that scenario's runs."""
    by_scenario = {}
    for run, scenario in run_scenario.items():
        by_scenario.setdefault(scenario, []).append(by_run.get(run, 0))
    return float(sum(statistics.median(v) for v in by_scenario.values()))


def layer_metrics(tracer: Tracer, run_scenario: dict, run_seconds: dict,
                  plain_pass_s: float) -> dict:
    """Per-layer statistics of a traced run, as per-pass estimates.

    ``run_scenario`` maps each traced run id to its scenario and
    ``run_seconds`` to its measured time; ``plain_pass_s`` is the untraced
    pass estimate.  Calls, self time, failures and counters are totalled
    per run and combined by ``per_pass``; the latency percentiles pool the
    inclusive durations of every call.
    """
    totals = {}                                  # (layer, stat) -> {run: x}
    durations = {}
    span_of = {}
    self_sum, span_count = {}, {}

    def add(name, stat, run, x):
        acc = totals.setdefault((name, stat), {})
        acc[run] = acc.get(run, 0) + x

    for sid, name, start, end, _, run, self_s in tracer.spans:
        span_of[sid] = (name, run)
        add(name, "calls", run, 1)
        add(name, "self_s", run, self_s)
        durations.setdefault(name, []).append(1e3 * (end - start))
        self_sum[run] = self_sum.get(run, 0.0) + self_s
        span_count[run] = span_count.get(run, 0) + 1
    for sid in tracer.failed:
        name, run = span_of[sid]
        add(name, "failed", run, 1)
    for sid, counts in tracer.counts:
        name, run = span_of[sid]
        for stat, x in counts.items():
            add(name, stat, run, x)

    out = {}
    for layer in LAYERS:
        for stat in layer.stats:
            if stat in ("p50_ms", "p99_ms"):
                d = durations.get(layer.name)
                q = 50 if stat == "p50_ms" else 99
                value = float(np.percentile(d, q)) if d else 0.0
            else:
                value = per_pass(totals.get((layer.name, stat), {}),
                                 run_scenario)
            out[f"{layer.name}.{stat}"] = value
    pass_s = per_pass(run_seconds, run_scenario)
    out["trace.pass_s"] = pass_s
    out["trace.overhead_s"] = pass_s - plain_pass_s
    out["trace.unattributed_s"] = per_pass(
        {r: t - self_sum.get(r, 0.0) for r, t in run_seconds.items()},
        run_scenario)
    out["trace.spans"] = per_pass(span_count, run_scenario)
    return out


def scenario_self_times(tracer: Tracer, run_scenario: dict) -> dict:
    """{scenario: {layer: median self time over the scenario's traced runs}},
    which shows where each scenario of a mixed workload spends its time."""
    per_run = {}
    for _, name, _, _, _, run, self_s in tracer.spans:
        acc = per_run.setdefault(run, {})
        acc[name] = acc.get(name, 0.0) + self_s
    runs_of = {}
    for run, scenario in run_scenario.items():
        runs_of.setdefault(scenario, []).append(per_run.get(run, {}))
    return {scenario: {name: statistics.median(r.get(name, 0.0) for r in runs)
                       for name in set().union(*runs)}
            for scenario, runs in runs_of.items()}
