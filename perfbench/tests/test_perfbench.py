"""Tests of the benchmark itself (not of damage_sim).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402
from damage_sim.config import parse_config_text  # noqa: E402

ALL = [sc for w in scenarios.WORKLOADS.values() for sc in w]


def _parse_file(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def _generated(tmp_path, seed):
    out = {}
    for workload in scenarios.WORKLOADS:
        for sc, path in scenarios.generate(workload, seed,
                                           os.path.join(ROOT, "configs"),
                                           str(tmp_path / workload)):
            out[sc.name] = (sc, _parse_file(path))
    return out


def test_seed0_reproduces_pinned_configs(tmp_path):
    for sc, flat in _generated(tmp_path, 0).values():
        expected = _parse_file(os.path.join(ROOT, "configs", sc.base + ".cfg"))
        expected.update(parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in sc.overrides.items())))
        assert flat == expected, sc.name
    plain = [sc for sc in ALL if not sc.overrides]
    assert {sc.base for sc in plain} == {
        os.path.splitext(f)[0] for f in os.listdir(os.path.join(ROOT, "configs"))}


def test_other_seeds_scale_amplitudes_only(tmp_path):
    base = _generated(tmp_path / "s0", 0)
    for seed in (1, 2, 17):
        changed = 0
        for name, (sc, flat) in _generated(tmp_path / str(seed), seed).items():
            ref = base[name][1]
            assert flat.keys() == ref.keys()
            for key, val in flat.items():
                if val == ref[key]:
                    continue
                changed += 1
                scaled = [k for k, _ in scenarios.INITIAL_KEYS]
                assert key in scenarios.LOAD_KEYS or key in scaled, key
                with np.errstate(invalid="ignore"):
                    ratio = np.asarray(val, float) / np.asarray(ref[key], float)
                ratio = ratio[np.isfinite(ratio) & (ratio != 1.0)]
                assert np.all(np.abs(ratio - 1.0) <= scenarios.BAND), key
        assert changed > 0


def _write_snapshots(outdir, states):
    os.makedirs(outdir, exist_ok=True)
    for i, (u, chi) in enumerate(states):
        x = np.linspace(0.0, 1.0, u.size)
        rows = np.column_stack([x, u, np.zeros_like(u), chi, np.zeros_like(u)])
        with open(os.path.join(outdir, f"snap_{i:05d}.csv"), "w") as fh:
            fh.write("x,u,v,chi,chi_t\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_gate_passes_clean_runs(tmp_path):
    _write_snapshots(str(tmp_path), [(np.ones(5), np.ones(5))])
    weak = {"mode": "weak", "edi": {"passed": True}}
    strong = {"mode": "strong", "mean_identity_residual_max": 1e-16,
              "horizon_hit": False}
    assert gate.check_run(0, weak, str(tmp_path)) == []
    assert gate.check_run(0, strong, str(tmp_path)) == []


def test_gate_flags_failed_checks(tmp_path):
    # weak mode returns 2 when EDI or UEDI fails, compare mode when REI fails
    failed = {"mode": "weak", "edi": {"passed": False}, "uedi": {"passed": True}}
    assert gate.check_run(2, failed, str(tmp_path))
    strong = {"mode": "strong", "mean_identity_residual_max": 1e-16,
              "horizon_hit": False}
    assert gate.check_run(0, dict(strong, mean_identity_residual_max=2e-8),
                          str(tmp_path))
    assert gate.check_run(0, dict(strong, horizon_hit=True), str(tmp_path))
    _write_snapshots(str(tmp_path), [(np.ones(5), np.array([1, 1, np.nan, 1, 1.]))])
    assert gate.check_run(0, strong, str(tmp_path))


def test_gate_flags_perturbed_final_state(tmp_path):
    ref = gate.load_reference()["quadratic"]
    u, chi = np.array(ref["u"]), np.array(ref["chi"])
    start = (np.zeros_like(u), np.ones_like(chi))
    _write_snapshots(str(tmp_path / "ok"), [start, (u, chi)])
    assert gate.check_reference(gate.final_state(str(tmp_path / "ok")), ref) == []
    bumped = chi.copy()
    bumped[100] -= 1e-4
    _write_snapshots(str(tmp_path / "bad"), [start, (u, bumped)])
    assert gate.check_reference(gate.final_state(str(tmp_path / "bad")), ref)
    assert gate.check_reference({"u": u}, ref)          # chi missing


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_emitted_metrics_are_declared():
    spec = _declared()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    layers = tracer.layer_metrics(tracer.Tracer(), {1: "a"}, {1: 1.0}, 1.0)
    for emitted, units, kind in (
            (layers, tracer.metric_units(), "per_layer"),
            (run.END_TO_END_UNITS, run.END_TO_END_UNITS, "end_to_end")):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        assert sorted(emitted) == sorted(declared), kind
        assert all(name_ok.match(n) for n in emitted)
        assert {n: units[n] for n in emitted} == declared
    assert {w["name"] for w in spec["workloads"]} == set(scenarios.WORKLOADS)


def test_host_speed_correction():
    r0, r1 = hostspeed.REFERENCE_S[:2]
    samples = [[0.0, 0, r0], [1.0, 0, 2 * r0], [2.0, 0, 4 * r0],
               [2.2, 1, 4 * r1], [9.0, 0, r0]]
    # kernel 0 at 3x its reference (mean of 2x, 4x), kernel 1 at 4x
    assert hostspeed.host_factor(samples, 0.5, 1.0) == pytest.approx(2.0)
    assert hostspeed.host_factor(samples, 0.5, 2.0) == pytest.approx(12 ** 0.5)
    assert hostspeed.host_factor(samples, 3.0, 1.0) == pytest.approx(4.0)
    samples = [[0.0, 0, r0], [1.0, 0, 3 * r0], [9.0, 0, r0]]
    res = {"samples": {"a": [6.0, 2.0]}, "node_steps": 100,
           "runs": [["a", 0.5, 6.0], ["a", 9.0, 2.0]], "peak_rss_mb": 1.0}
    setup = [(0.5, 1.5), (9.0, 1.0), (9.0, 3.0)]
    e2e = run.end_to_end(res, setup, samples)
    assert e2e["wall_ref_s"] == pytest.approx(2.0)   # median of 6/3, 2/1
    assert e2e["node_steps_per_ref_s"] == pytest.approx(50.0)
    assert e2e["setup_s"] == pytest.approx(1.0)      # median of 0.5, 1, 3


def test_host_speed_monitor_samples_and_stops():
    cpu = max(os.sched_getaffinity(0))
    mon = hostspeed.Monitor(cpu)
    try:
        time.sleep(0.3)
    finally:
        samples = mon.stop()
    assert mon.proc.returncode == 0
    assert len(samples) >= 2
    assert [j for _, j, _ in samples[:2]] == [0, 1]     # kernels in turn
    assert all(0 < d < 1 for _, _, d in samples)


def test_tracer_records_nested_spans_and_restores():
    from damage_sim import discretization, strong_galerkin, weak_stepper
    orig = discretization.assemble_operators
    tr = tracer.Tracer()
    tr.install()
    try:
        assert weak_stepper.assemble_operators is not orig
        mesh = discretization.build_mesh(33, 1.0)
        basis = discretization.neumann_eigenbasis(mesh, 1.0, 4)
        with pytest.raises(ValueError):
            discretization.neumann_eigenbasis(mesh, -1.0, 4)
    finally:
        tr.uninstall()
    assert discretization.assemble_operators is orig
    assert strong_galerkin.assemble_operators is orig
    assert basis.n_modes == 4
    names = [s[1] for s in tr.spans]
    assert names == ["discretization.assemble_operators",
                     "discretization.neumann_eigenbasis",
                     "discretization.neumann_eigenbasis"]
    child, parent = tr.spans[0], tr.spans[1]
    assert child[4] == parent[0]
    assert parent[6] == pytest.approx(parent[3] - parent[2] - (child[3] - child[2]))
    assert tr.failed == [tr.spans[2][0]]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strong_suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
