"""Scenario runner and I/O front door.

Exit codes: 0 success, 2 inequality-check failure, 1 solver/config error.
All CSV/JSON outputs are byte-stable for a fixed configuration; wall-clock
timing is logged to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import diagnostics as diag
from .config import MODES, ConfigError, config_digest, load_scenario
from .discretization import build_mesh, neumann_eigenbasis
from .model import ScenarioConfig, validate_material
from .regularization import (
    graph_indicator_box,
    graph_indicator_halfline,
    graph_quadratic,
    regularization_property_check,
    regularize,
)
from .strong_galerkin import run_strong
from .trajectory import SCHEMA_VERSION, write_csv, write_json
from .weak_stepper import run_weak

_DEMO_GRAPHS = {
    "indicator_halfline": graph_indicator_halfline,
    "indicator_box": graph_indicator_box,
    "quadratic": graph_quadratic,
}


def _write_energies(outdir, traj, edi=None):
    uedi = diag.uedi_check(traj)
    if edi is not None:
        # align the per-step EDI slack with the (possibly strided) outputs
        edi_slack = edi.slack[np.rint(uedi.times / traj.tau).astype(int)]
    else:
        edi_slack = np.full_like(uedi.slack, np.nan)
    write_csv(os.path.join(outdir, "energies.csv"),
              ["t", "E", "D_cum", "work", "edi_slack", "uedi_slack"],
              [uedi.times, uedi.E, uedi.D_cum, uedi.work_cum, edi_slack,
               uedi.slack])
    return uedi


def export_report(traj, outdir: str, edi=None):
    """Write the snapshot files, the time manifest, the run report, and
    energies.csv for a trajectory; returns (file list, UEDI report)."""
    os.makedirs(outdir, exist_ok=True)
    files = traj.save(outdir)
    uedi = _write_energies(outdir, traj, edi)
    files.append("energies.csv")
    return files, uedi


def _manifest(outdir, files, digest, mode, status, extra):
    inventory = {}
    for name in sorted(set(files)):
        path = os.path.join(outdir, name)
        inventory[name] = os.path.getsize(path)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest,
        "mode": mode,
        "exit_status": status,
        "files": inventory,
        **extra,
    }
    write_json(os.path.join(outdir, "manifest.json"), payload)


def _run_weak_mode(config, outdir):
    traj = run_weak(config)
    edi = diag.discrete_edi_check(traj)
    files, uedi = export_report(traj, outdir, edi)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": "weak",
        "edi": {"worst_slack": edi.worst_slack, "tol": edi.tol,
                "passed": edi.passed,
                "slack": [float(s) for s in edi.slack]},
        "uedi": {"worst_slack": uedi.worst_slack, "tol": uedi.tol,
                 "passed": uedi.passed},
        "monotone": bool(edi.unidirectional),
    }
    write_json(os.path.join(outdir, "report.json"), report)
    files.append("report.json")
    status = 0 if (edi.passed and uedi.passed) else 2
    return files, status, {"steps": len(traj) - 1}


def _run_strong_mode(config, outdir):
    traj, monitor = run_strong(config)
    files, uedi = export_report(traj, outdir)
    balance = diag.strong_energy_balance_residual(traj)
    mean_res = max((r for _, r, _ in traj.extras["mean_identity"]), default=0.0)
    write_json(os.path.join(outdir, "monitor.json"), monitor.to_dict())
    files.append("monitor.json")
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": "strong",
        "balance_residual_final": float(balance[-1]),
        "balance_residual_max": float(np.max(balance)),
        "mean_identity_residual_max": float(mean_res),
        "horizon_hit": monitor.horizon_hit,
        "uedi_worst_slack": uedi.worst_slack,
    }
    write_json(os.path.join(outdir, "report.json"), report)
    files.append("report.json")
    return files, 0, {"steps": len(traj) - 1}


def _refined(config: ScenarioConfig) -> ScenarioConfig:
    """The compare run's strong surrogate: the weak scenario with the
    ``strong`` settings on a mesh and step refined by the ``compare`` ones,
    recorded at the weak run's output times only."""
    rs, rt = config.compare.refine_space, config.compare.refine_time
    return replace(config, N=(config.N - 1) * rs + 1, mode="strong",
                   strong=replace(config.strong, steps=config.K * rt),
                   output_stride=rt * config.output_stride,
                   label=config.label + "_surrogate")


def _run_compare_mode(config, outdir):
    weak_traj = run_weak(config)
    strong_traj, _ = run_strong(_refined(config))
    rep = diag.rei_check(weak_traj, strong_traj, c_rei=config.compare.c_rei)
    # the surrogate's solver reports, never its snapshots
    write_json(os.path.join(outdir, "surrogate_run_report.json"),
               strong_traj.run_report())
    files = ["surrogate_run_report.json"]
    write_csv(os.path.join(outdir, "relative.csv"),
              ["t", "R", "W_cum", "K", "rhs", "slack"],
              [rep.times, rep.R, rep.W_cum, rep.K, rep.rhs, rep.slack])
    files.append("relative.csv")
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": "compare",
        "sup_R": rep.sup_R,
        "c_rei": rep.c_rei,
        "sign_ok": rep.sign_ok,
        "feasible": rep.feasible,
        "worst_slack": float(np.min(rep.slack)),
        "passed": rep.passed,
    }
    write_json(os.path.join(outdir, "report.json"), report)
    files.append("report.json")
    return files, 0 if rep.passed else 2, {"sup_R": rep.sup_R}


def _run_validate_mode(config, outdir):
    report = validate_material(config.material)
    try:
        config.validate(build_mesh(config.N, config.L).nodes)
        config_ok, config_err = True, ""
    except ValueError as exc:
        config_ok, config_err = False, str(exc)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": "validate",
        "material": report.to_dict(),
        "degradation_shape_ok": report.degradation_shape_ok(),
        "config_ok": config_ok,
        "config_error": config_err,
    }
    write_json(os.path.join(outdir, "validation.json"), payload)
    status = 0 if (report.passed and config_ok) else 2
    return ["validation.json"], status, {}


def _run_eigs_mode(config, outdir):
    mesh = build_mesh(config.N, config.L)
    n = config.strong.n_modes
    basis = neumann_eigenbasis(mesh, config.material.V, n,
                               tol_eig=config.tolerances.eig)
    write_csv(os.path.join(outdir, "eigenbasis.csv"),
              ["x"] + [f"mode_{k}" for k in range(n + 1)],
              [mesh.nodes, *basis.vectors.T])
    write_csv(os.path.join(outdir, "eigenvalues.csv"), ["k", "lambda"],
              [np.arange(n + 1), basis.eigenvalues])
    return ["eigenbasis.csv", "eigenvalues.csv"], 0, {}


def _run_regularize_demo(config, outdir):
    demo = config.regularize
    grid = np.linspace(demo.grid_lo, demo.grid_hi, demo.grid_n)
    try:
        graph = _DEMO_GRAPHS[demo.graph]()
    except KeyError:
        raise ConfigError(f"unknown demo graph {demo.graph!r}") from None
    files = []
    checks = {}
    all_ok = True
    for d in demo.deltas:
        reg = regularize(graph, d)
        v, d1, d2 = reg.eval_all(grid)
        name = f"regularized_{demo.graph}_delta_{d:g}.csv"
        write_csv(os.path.join(outdir, name),
                  ["x", "value", "d1", "d2", "bound_d1", "bound_d2"],
                  [grid, v, d1, d2,
                   np.full_like(grid, 1.0 / d),
                   np.full_like(grid, reg.mollifier.c_hat / d ** 3)])
        files.append(name)
        rep = regularization_property_check(reg, grid)
        checks[f"delta_{d:g}"] = {"passed": rep.passed, "margins": rep.margins()}
        all_ok &= rep.passed
    write_json(os.path.join(outdir, "report.json"),
               {"schema_version": SCHEMA_VERSION, "mode": "regularize-demo",
                "graph": demo.graph, "checks": checks})
    files.append("report.json")
    return files, 0 if all_ok else 2, {}


_RUNNERS = {
    "weak": _run_weak_mode,
    "strong": _run_strong_mode,
    "compare": _run_compare_mode,
    "validate": _run_validate_mode,
    "eigs": _run_eigs_mode,
    "regularize-demo": _run_regularize_demo,
}


def run_scenario(config_path: str, mode: str | None, outdir: str,
                 tol_overrides=None) -> int:
    """Execute one scenario pipeline in ``mode`` (None: the file's own);
    returns the process exit status."""
    t0 = time.perf_counter()
    overrides = {f"tol.{k}": float(v) for k, v in tol_overrides or ()}
    config, flat = load_scenario(config_path, overrides)
    if mode is None:
        mode = config.mode
    elif mode in ("weak", "strong", "compare"):
        config.mode = mode
    os.makedirs(outdir, exist_ok=True)
    files, status, extra = _RUNNERS[mode](config, outdir)
    _manifest(outdir, files, config_digest(flat), mode, status, extra)
    print(f"[damage-sim] {mode} finished in {time.perf_counter() - t0:.2f}s "
          f"(exit {status})", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="damage-sim",
        description="1D damage-viscoelasticity simulator and verifier")
    parser.add_argument("--config", required=False, help="scenario file")
    parser.add_argument("--mode", choices=MODES + ("sweep",), default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tol-override", action="append", default=[],
                        metavar="K=V", help="override a tolerance field")
    parser.add_argument("--sweep-configs", nargs="*", default=[],
                        help="config files for sweep mode")
    args = parser.parse_args(argv)

    overrides = []
    for item in args.tol_override:
        if "=" not in item:
            parser.error(f"bad --tol-override {item!r}")
        k, v = item.split("=", 1)
        overrides.append((k.strip(), v.strip()))

    try:
        if args.mode == "sweep":
            return _sweep(args.sweep_configs, args.out, overrides)
        if not args.config:
            parser.error("--config is required")
        return run_scenario(args.config, args.mode, args.out, overrides)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"[damage-sim] error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"[damage-sim] solver error: {exc}", file=sys.stderr)
        return 1


def _sweep(configs, outroot, overrides) -> int:
    import concurrent.futures   # only a sweep starts worker processes
    if not configs:
        print("[damage-sim] sweep needs --sweep-configs", file=sys.stderr)
        return 1
    workers = int(os.environ.get("DAMAGE_SIM_THREADS", "0")) or None
    status = 0
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {}
        for path in configs:
            name = os.path.splitext(os.path.basename(path))[0]
            outdir = os.path.join(outroot, name)
            futures[pool.submit(run_scenario, path, None, outdir,
                                overrides)] = path
        for fut in concurrent.futures.as_completed(futures):
            status = max(status, fut.result())
    return status


if __name__ == "__main__":
    raise SystemExit(main())
