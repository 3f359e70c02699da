"""Run one benchmark workload in this process and print its measurements.

Started by run.py, from the root of a damage-sim checkout, with BLAS and
OpenMP threads already pinned.  The last line of standard output is one
JSON object.  ``--setup-only`` stops after the set-up; ``--write-reference``
(seed 0 only) runs one pass and stores its final states as the reference.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

import scenarios

sys.path.insert(0, os.path.abspath("src"))
# gate and tracer import numpy, whose import belongs to the timed set-up, so
# the functions below import them locally, after the set-up.


def setup(workload: str, seed: int, gen_dir: str):
    """Import damage_sim, generate the scenario files and parse them."""
    t0 = time.perf_counter()
    import damage_sim.cli  # noqa: F401  (the import is part of the set-up)
    from damage_sim import config
    runs = []
    for sc, path in scenarios.generate(workload, seed, "configs", gen_dir):
        cfg, flat = config.load_scenario(path)
        runs.append((sc, path, flat["mode"], node_steps(cfg, flat)))
    return time.perf_counter() - t0, runs


def node_steps(cfg, flat) -> int:
    """N x nominal time steps; a compare run adds its refined surrogate."""
    if cfg.mode == "weak":
        return cfg.N * cfg.K
    if cfg.mode == "strong":
        return cfg.N * cfg.strong.resolved().steps
    rs = int(flat.get("compare.refine_space", 4))
    rt = int(flat.get("compare.refine_time", 4))
    return cfg.N * cfg.K + ((cfg.N - 1) * rs + 1) * cfg.K * rt


def execute(sc, path: str, mode: str, outdir: str):
    """One scenario through the public entry points; returns (seconds,
    status, report dict, finding or None).  Only the calls into damage_sim
    are timed.  Modules are looked up at call time so that traced wrappers
    are used when installed."""
    from damage_sim import cli, config, strong_galerkin
    t0 = time.perf_counter()
    if sc.runner == "cli":
        status = cli.run_scenario(path, mode, outdir)
        elapsed = time.perf_counter() - t0
        with open(os.path.join(outdir, "report.json")) as fh:
            return elapsed, status, json.load(fh), None
    cfg, _ = config.load_scenario(path)
    traj, monitor = strong_galerkin.run_strong(cfg)
    _, uedi = cli.export_report(traj, outdir)
    elapsed = time.perf_counter() - t0
    report = {"mode": "strong", "horizon_hit": monitor.horizon_hit,
              "mean_identity_residual_max": max(
                  r for _, r, _ in traj.extras["mean_identity"])}
    # Regularized strong dynamics are unidirectional only up to O(delta);
    # reported, not gated.
    finding = {"scenario": sc.name, "uedi_unidirectional": uedi.unidirectional,
               "uedi_worst_slack": uedi.worst_slack,
               "max_chi_t": max(float(s.chi_t.max()) for s in traj.snapshots),
               "max_chi_t_at_0": float(traj.snapshots[0].chi_t.max()),
               "delta": cfg.strong.delta}
    return elapsed, 0, report, finding


class Bench:
    def __init__(self, args, runs):
        import gate
        self.args = args
        self.runs = runs
        self.out = os.path.join(args.out, "runs")
        self.attempted = 0
        self.failures = []
        self.findings = []
        self.finals = {}
        self.reference = (gate.load_reference()
                          if args.seed == 0 and not args.write_reference
                          else None)

    def one(self, sc, path, mode) -> float:
        import gate
        outdir = os.path.join(self.out, sc.name)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            elapsed, status, report, finding = execute(sc, path, mode, outdir)
        except Exception as exc:        # a failed run is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.failures.append(f"{sc.name}: {type(exc).__name__}: {exc}")
            shutil.rmtree(outdir, ignore_errors=True)
            return elapsed
        reasons = gate.check_run(status, report, outdir)
        if self.reference is not None or self.args.write_reference:
            final = gate.final_state(outdir)
            if self.args.write_reference:
                self.finals[sc.name] = {k: v.tolist() for k, v in final.items()}
            else:
                reasons += gate.check_reference(final, self.reference[sc.name])
        if reasons:
            self.failures.append(f"{sc.name}: " + "; ".join(reasons))
        if finding is not None:
            self.findings.append(finding)
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    """Closed loop, one scenario run at a time, round robin over the list.

    Stops once a full pass is done and the next run (untraced, or an
    untraced and a traced one) would end after ``seconds``.  The pass time
    is the sum over scenarios of the median time of their runs.  ``runs``
    lists every untraced run as [scenario, start, seconds], the start on
    the time.monotonic clock, for the host-speed correction in run.py.
    """
    import tracer as tracing
    tr = tracing.Tracer() if traced else None
    plain = {sc.name: [] for sc, *_ in bench.runs}
    runs = []
    run_scenario, run_seconds = {}, {}

    def traced_one(sc, path, mode):
        tr.run_id += 1
        tr.install()
        try:
            run_seconds[tr.run_id] = bench.one(sc, path, mode)
        finally:
            tr.uninstall()
        run_scenario[tr.run_id] = sc.name

    start = time.perf_counter()
    for i in itertools.count():
        sc, path, mode, _ = bench.runs[i % len(bench.runs)]
        if i >= len(bench.runs):
            cost = statistics.median(plain[sc.name])
            if traced:
                cost += statistics.median(
                    t for r, t in run_seconds.items()
                    if run_scenario[r] == sc.name)
            if time.perf_counter() - start + cost > seconds:
                break
        # traced and untraced runs alternate in which goes first
        traced_first = traced and i % 2 == 1
        if traced_first:
            traced_one(sc, path, mode)
        t0 = time.monotonic()
        plain[sc.name].append(bench.one(sc, path, mode))
        runs.append([sc.name, t0, plain[sc.name][-1]])
        if traced and not traced_first:
            traced_one(sc, path, mode)
    out = {"samples": plain, "runs": runs,
           "pass_s": sum(statistics.median(v) for v in plain.values())}
    if traced:
        out["layers"] = tracing.layer_metrics(tr, run_scenario, run_seconds,
                                              out["pass_s"])
        out["by_scenario"] = tracing.scenario_self_times(tr, run_scenario)
        tr.dump(os.path.join(bench.args.out, "spans.json"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.write_reference and args.seed != 0:
        p.error("references are stored for seed 0 only")

    setup_at = time.monotonic()
    setup_s, runs = setup(args.workload, args.seed,
                          os.path.join(args.out, "scenarios"))
    result = {"setup_s": setup_s, "setup_at": setup_at,
              "node_steps": sum(r[3] for r in runs),
              "scenarios": [r[0].name for r in runs]}
    if not args.setup_only:
        bench = Bench(args, runs)
        if args.write_reference:
            import gate
            for sc, path, mode, _ in runs:
                bench.one(sc, path, mode)
            ref = (gate.load_reference()
                   if os.path.exists(gate.REFERENCE) else {})
            ref.update(bench.finals)
            with open(gate.REFERENCE, "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            result.update(measure(bench, args.seconds, bool(args.trace)))
        result.update(attempted=bench.attempted, failures=bench.failures,
                      findings=bench.findings)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
