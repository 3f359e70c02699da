"""damage-sim benchmark: one workload, end to end or traced by layer.

Run from the root of a damage-sim checkout:

    python3 perfbench/run.py --workload weak_suite --seed 0 --seconds 55 --trace 0

The set-up (import damage_sim, generate and parse the scenario files) is
timed in SETUP_SAMPLES fresh processes, the last of which goes on to run
the workload for ``--seconds`` in a closed loop.  Every child process runs
with BLAS and OpenMP pinned to one thread, on one CPU, which a host-speed
monitor (hostspeed.py) samples meanwhile; the declared timings are in
reference-host seconds.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

OUT_ROOT = ".perfbench_out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s",
                    "node_steps_per_ref_s": "1/s", "peak_rss_mb": "MB"}


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _worker(args, out, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out] + extra
    env = dict(os.environ, **THREAD_PIN)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(res: dict, setup: list, samples: list) -> dict:
    """The declared end-to-end metrics; ``setup`` holds (start, seconds)
    of each set-up, ``samples`` the host-speed monitor's samples."""
    def ref(start, seconds):
        return seconds / hostspeed.host_factor(samples, start, seconds)

    runs = {name: [] for name in res["samples"]}
    for name, start, seconds in res["runs"]:
        runs[name].append(ref(start, seconds))
    pass_ref_s = sum(statistics.median(v) for v in runs.values())
    return {"setup_s": statistics.median(ref(*s) for s in setup),
            "wall_ref_s": pass_ref_s,
            "node_steps_per_ref_s": res["node_steps"] / pass_ref_s,
            "peak_rss_mb": res["peak_rss_mb"]}


def report_lines(args, res, e2e, setup, samples, cpu) -> list:
    counts = ", ".join(f"{name} {len(v)}"
                       for name, v in res["samples"].items())
    during = [hostspeed.host_factor(samples, t, s) for _, t, s in res["runs"]]
    host = (f"host speed        monitor and workload on CPU {cpu}: "
            f"{len(samples)} samples, host factor {min(during):.3f}.."
            f"{max(during):.3f} over the runs (1 = every kernel at its "
            f"reference time)")
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"scenarios {', '.join(res['scenarios'])}",
        "threads pinned: " + " ".join(f"{k}={v}" for k, v in THREAD_PIN.items()),
        host,
        f"setup_s           {e2e['setup_s']:.4f} s in reference-host seconds "
        f"(median of {len(setup)} fresh processes; measured "
        f"{statistics.median(s for _, s in setup):.4f} s)",
        f"wall_s            {res['pass_s']:.4f} s measured (sum over scenarios "
        f"of the median untraced run; runs per scenario: {counts})",
        f"node_steps_per_s  {res['node_steps'] / res['pass_s']:.1f} 1/s "
        f"measured ({res['node_steps']} node-steps per pass)",
        f"wall_ref_s        {e2e['wall_ref_s']:.4f} s (as wall_s, each run "
        f"in reference-host seconds)",
        f"node_steps_per_ref_s {e2e['node_steps_per_ref_s']:.1f} 1/s",
        f"peak_rss_mb       {e2e['peak_rss_mb']:.1f} MB",
        f"fail_ratio        {len(res['failures'])}/{res['attempted']} = "
        f"{len(res['failures']) / res['attempted']:.4g}",
    ]
    lines += [f"FAILED {f}" for f in res["failures"]]
    for f in res["findings"][:1]:
        lines.append(
            f"finding ({f['scenario']}, first of {len(res['findings'])} "
            f"runs): max chi_t = "
            f"{f['max_chi_t']:.3e} (at t=0: {f['max_chi_t_at_0']:.3e}), "
            f"delta = {f['delta']:g}, uedi unidirectional = "
            f"{f['uedi_unidirectional']}, uedi worst slack = "
            f"{f['uedi_worst_slack']:.3g}")
    if args.trace:
        units = tracer.metric_units()
        lines.append("per-layer, per pass (sum over scenarios of the median "
                     "traced run; percentiles pool all calls):")
        lines += [f"  {name:58s} {value:.6g} {units[name]}"
                  for name, value in res["layers"].items()]
        lines.append("largest self times per scenario (median traced run):")
        for scenario, layers in res["by_scenario"].items():
            total = sum(layers.values())
            top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
            lines.append(f"  {scenario}: " + ", ".join(
                f"{name} {t:.3f} s ({100 * t / total:.0f}%)" for name, t in top))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (os.path.isfile(os.path.join("src", "damage_sim", "__init__.py"))
            and os.path.isdir("configs")):
        print("perfbench: run from the root of a damage-sim checkout "
              "(src/damage_sim and configs/ not found)", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    out = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    # The workers and the host-speed monitor share one CPU, so that the
    # monitor sees the speed the workload gets.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    monitor = hostspeed.Monitor(cpu)
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            r = _worker(args, out, ["--setup-only"], deadline)
            setup.append((r["setup_at"], r["setup_s"]))
        res = _worker(args, out, [], deadline)
        setup.append((res["setup_at"], res["setup_s"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        samples = monitor.stop()

    e2e = end_to_end(res, setup, samples)
    metrics = res["layers"] if args.trace else e2e
    declared = declared_metrics(bool(args.trace))
    if sorted(metrics) != sorted(declared):
        print("perfbench: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1
    units = END_TO_END_UNITS if not args.trace else tracer.metric_units()

    for line in report_lines(args, res, e2e, setup, samples, cpu):
        print(line)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
