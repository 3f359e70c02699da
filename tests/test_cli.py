import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import damage_sim
from damage_sim.cli import main, run_scenario
from damage_sim.config import ConfigError, build_scenario, parse_config_text

from suite_configs import config_text, standard_suite

ZERO_DATA = """
label = "zero"
mode = "weak"
mesh.N = 21
time.T = 0.2
time.K = 10
material.a = "quadratic_plus"
potential.name = "quadratic"
potential.center = 0.8
initial.chi0 = "constant"
initial.chi0_value = 0.8
"""

STRONG_SMALL = """
label = "strong_small"
mode = "strong"
mesh.N = 33
time.T = 0.2
time.K = 20
material.a = "cubic_plus"
potential.name = "quadratic"
initial.u0 = "cosine_mix"
initial.u0_coeffs = 0.0, 0.1
initial.chi0 = "cosine_mix"
initial.chi0_coeffs = 0.8, 0.1
strong.n_modes = 6
strong.delta = 0.1
strong.nu = 1e-5
strong.steps = 20
strong.varpi0 = 0.0
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def dir_digest(root, skip=()):
    chunks = []
    for name in sorted(os.listdir(root)):
        if name in skip:
            continue
        with open(os.path.join(root, name), "rb") as fh:
            chunks.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return chunks


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip_types():
    flat = parse_config_text(
        'a.b = 1\nx = 2.5\nname = "hi"\nflag = true\nlist = 1, 2, 3\n# note\n')
    assert flat == {"a.b": 1, "x": 2.5, "name": "hi", "flag": True,
                    "list": [1.0, 2.0, 3.0]}


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ValueError, match="bogus.key"):
        build_scenario(parse_config_text(ZERO_DATA + "bogus.key = 1\n"))


def test_material_ell_rejected():
    # ell has one source, the potential split (potential.ell)
    with pytest.raises(ConfigError, match="material.*ell"):
        build_scenario(parse_config_text(ZERO_DATA + "material.ell = 0.5\n"))


def test_suite_configs_build():
    suite = standard_suite()
    assert set(suite) == {"quadratic", "logarithmic", "indicator_box",
                          "strong_damage", "robin_loaded"}
    for cfg in suite.values():
        assert cfg.N == 201 and cfg.K == 400 and cfg.T == 1.0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def test_validate_mode_shape_preset(tmp_path):
    cfg = write_cfg(tmp_path, config_text("quadratic"))
    out = tmp_path / "out"
    status = run_scenario(cfg, "validate", str(out))
    assert status == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["degradation_shape_ok"] is True
    assert payload["material"]["passed"] is True


def test_weak_mode_zero_data_all_slacks_zero(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA)
    out = tmp_path / "out"
    status = run_scenario(cfg, "weak", str(out))
    assert status == 0
    report = json.loads((out / "report.json").read_text())
    assert max(abs(s) for s in report["edi"]["slack"]) <= 1e-12
    energies = np.genfromtxt(out / "energies.csv", delimiter=",", names=True)
    assert np.allclose(energies["uedi_slack"], 0.0, atol=1e-12)


def test_weak_mode_outputs_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA)
    out = tmp_path / "out"
    run_scenario(cfg, "weak", str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    for name, size in manifest["files"].items():
        assert os.path.getsize(out / name) == size
    assert manifest["exit_status"] == 0
    assert manifest["schema_version"] == 1
    snap = np.genfromtxt(out / "snap_00000.csv", delimiter=",", names=True)
    assert set(snap.dtype.names) == {"x", "u", "v", "chi", "chi_t"}
    # read-back equals write bit-exactly (shortest-round-trip formatting)
    assert np.array_equal(snap["chi"], np.full(21, 0.8))
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1


# scipy's quadrature and spline stack and what it pulls in
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.special",
         "scipy.optimize")


def _fresh_run(tmp_path, script):
    """Run ``script`` in a fresh interpreter that imports this damage_sim;
    returns the JSON of its last output line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(damage_sim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_weak_run_imports_no_scipy_quadrature_or_splines(tmp_path):
    # preset time factors have closed-form means, so a weak run needs only
    # numpy and scipy.linalg
    cfg = write_cfg(tmp_path, ZERO_DATA + 'forcing.kind = "sin_t"\n'
                    'forcing.amplitude = 0.5\nforcing.freq = 3.0\n')
    status, loaded = _fresh_run(tmp_path, f"""
import json, sys
from damage_sim.cli import run_scenario
status = run_scenario({cfg!r}, "weak", "out")
print(json.dumps([status, [m for m in {HEAVY!r} if m in sys.modules]]))
""")
    assert status == 0
    assert loaded == []


def test_strong_run_imports_scipy_quadrature_at_first_regularize(tmp_path):
    cfg = write_cfg(tmp_path, STRONG_SMALL)
    status, seen = _fresh_run(tmp_path, f"""
import json, sys
from damage_sim import regularization
from damage_sim.cli import run_scenario
real, seen = regularization.regularize, []

def spy(*args, **kw):
    seen.append([m for m in {HEAVY!r} if m in sys.modules])
    return real(*args, **kw)

regularization.regularize = spy
status = run_scenario({cfg!r}, "strong", "out")
print(json.dumps([status, seen + [[m for m in {HEAVY!r} if m in sys.modules]]]))
""")
    assert status == 0
    assert len(seen) >= 3
    assert seen[0] == []
    assert all(loaded == list(HEAVY) for loaded in seen[1:])


def test_strong_mode_outputs(tmp_path):
    cfg = write_cfg(tmp_path, STRONG_SMALL)
    out = tmp_path / "out"
    status = run_scenario(cfg, "strong", str(out))
    assert status == 0
    monitor = json.loads((out / "monitor.json").read_text())
    assert monitor["verdict"] == "completed"
    report = json.loads((out / "report.json").read_text())
    assert report["mean_identity_residual_max"] <= 1e-9


def test_compare_mode_produces_relative_csv(tmp_path):
    text = ZERO_DATA.replace('label = "zero"', 'label = "cmp"') + (
        'initial.u0 = "cosine_mix"\n'
        'initial.u0_coeffs = 0.0, 0.1\n'
        'material.a = "cubic_plus"\n'
        'potential.center = 0.0\n'
        "compare.refine_space = 2\n"
        "compare.refine_time = 2\n"
        "compare.n_modes = 6\n"
        "compare.delta = 0.01\n"
        "compare.nu = 1e-8\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    status = run_scenario(cfg, "compare", str(out))
    assert status == 0
    rel = np.genfromtxt(out / "relative.csv", delimiter=",", names=True)
    assert set(rel.dtype.names) == {"t", "R", "W_cum", "K", "rhs", "slack"}
    report = json.loads((out / "report.json").read_text())
    assert report["sup_R"] >= 0.0
    # the strong surrogate's solver reports (K = 10 steps refined twice in
    # time), without its snapshots
    surrogate = json.loads((out / "surrogate_run_report.json").read_text())
    assert surrogate["mode"] == "strong" and surrogate["steps"] == 20
    assert [r["step"] for r in surrogate["step_reports"]] == list(range(1, 21))
    assert not list(out.glob("snap_*.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert "surrogate_run_report.json" in manifest["files"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="implicit midpoint is not L-stable: step_regularized "
                          "sets omega_t to the extrapolation 2*stage - cur, "
                          "which does not damp the stiff nu-mode, so chi_t "
                          "oscillates and REI turns infeasible (exit 2)")
def test_compare_demo_logarithmic_rei_feasible(tmp_path):
    text = config_text("compare_demo").replace(
        'potential.name = "quadratic"',
        'potential.name = "logarithmic"\npotential.c1 = 1.0')
    out = tmp_path / "out"
    status = run_scenario(write_cfg(tmp_path, text), "compare", str(out))
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] and status == 0


def test_eigs_mode(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA + "eigs.n_modes = 3\n")
    out = tmp_path / "out"
    assert run_scenario(cfg, "eigs", str(out)) == 0
    vals = np.genfromtxt(out / "eigenvalues.csv", delimiter=",", skip_header=1)
    assert vals.shape == (4, 2)
    assert abs(vals[0, 1]) <= 1e-12
    assert abs(vals[1, 1] - np.pi**2) / np.pi**2 <= 1e-2
    basis = np.genfromtxt(out / "eigenbasis.csv", delimiter=",", names=True)
    assert basis.shape[0] == 21


def test_eigs_mode_fine_mesh(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA.replace("mesh.N = 21", "mesh.N = 4097")
                    + "eigs.n_modes = 3\n")
    out = tmp_path / "out"
    assert run_scenario(cfg, "eigs", str(out)) == 0
    vals = np.genfromtxt(out / "eigenvalues.csv", delimiter=",", skip_header=1)
    assert abs(vals[1, 1] - np.pi**2) / np.pi**2 <= 1e-6
    basis = np.genfromtxt(out / "eigenbasis.csv", delimiter=",", names=True)
    assert basis.shape[0] == 4097


def test_strong_mode_fine_mesh(tmp_path):
    cfg = write_cfg(tmp_path, STRONG_SMALL
                    .replace("mesh.N = 33", "mesh.N = 2049")
                    .replace("time.T = 0.2", "time.T = 0.02")
                    .replace("strong.steps = 20", "strong.steps = 4"))
    out = tmp_path / "out"
    assert run_scenario(cfg, "strong", str(out)) == 0
    monitor = json.loads((out / "monitor.json").read_text())
    assert monitor["verdict"] == "completed"
    report = json.loads((out / "report.json").read_text())
    assert report["mean_identity_residual_max"] <= 1e-9


def test_regularize_demo_mode(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA
                    + 'regularize.graph = "indicator_halfline"\n'
                    + "regularize.deltas = 0.2, 0.1\n")
    out = tmp_path / "out"
    assert run_scenario(cfg, "regularize-demo", str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert all(v["passed"] for v in rep["checks"].values())
    data = np.genfromtxt(out / "regularized_indicator_halfline_delta_0.2.csv",
                         delimiter=",", names=True)
    assert "d2" in data.dtype.names


def test_cli_main_error_paths(tmp_path):
    assert main(["--config", "/nonexistent.cfg", "--mode", "weak",
                 "--out", str(tmp_path / "o")]) == 1
    bad = write_cfg(tmp_path, "mesh.N = \n", "bad.cfg")
    assert main(["--config", bad, "--mode", "weak",
                 "--out", str(tmp_path / "o2")]) == 1


def test_cli_tol_override(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_DATA)
    out = tmp_path / "out"
    status = main(["--config", cfg, "--mode", "weak", "--out", str(out),
                   "--tol-override", "inner=1e-8"])
    assert status == 0


def test_exit_code_two_on_failed_validation(tmp_path):
    bad = ZERO_DATA.replace('material.a = "quadratic_plus"',
                            'material.a = "identity"')
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "out"
    assert run_scenario(cfg, "validate", str(out)) == 2


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_weak_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, config_text("robin_loaded")
                    .replace("mesh.N = 201", "mesh.N = 41")
                    .replace("time.K = 400", "time.K = 20"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, "weak", str(out1))
    run_scenario(cfg, "weak", str(out2))
    assert dir_digest(out1) == dir_digest(out2)


def test_strong_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, STRONG_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, "strong", str(out1))
    run_scenario(cfg, "strong", str(out2))
    assert dir_digest(out1) == dir_digest(out2)


# ---------------------------------------------------------------------------
# Resource behaviour
# ---------------------------------------------------------------------------

def test_streaming_memory_moderate_run(tmp_path):
    import tracemalloc

    cfg = write_cfg(tmp_path, ZERO_DATA
                    .replace("mesh.N = 21", "mesh.N = 2001")
                    .replace("time.K = 10", "time.K = 50"))
    out = tmp_path / "out"
    tracemalloc.start()
    run_scenario(cfg, "weak", str(out))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 512 * 1024**2


@pytest.mark.slow
def test_streaming_memory_large_run(tmp_path):
    import tracemalloc

    cfg = write_cfg(tmp_path, ZERO_DATA
                    .replace("mesh.N = 21", "mesh.N = 2001")
                    .replace("time.K = 10", "time.K = 10000")
                    .replace("time.T = 0.2", "time.T = 1.0")
                    + "output.stride = 50\n")
    out = tmp_path / "out"
    tracemalloc.start()
    run_scenario(cfg, "weak", str(out))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 64 * 1024**2


def test_strong_schedule_key_resolves(tmp_path):
    text = STRONG_SMALL.replace("strong.delta = 0.1", "strong.schedule_n = 2")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(cfg, "strong", str(out)) == 0
