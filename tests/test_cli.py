import ast
import dataclasses
import hashlib
import json
import operator
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import damage_sim
import damage_sim.cli as cli
from damage_sim.cli import main, run_scenario
from damage_sim.config import (
    ConfigError,
    build_scenario,
    load_scenario,
    parse_config_text,
)
from damage_sim.model import (
    CompareSettings,
    MaterialLaw,
    RegularizeDemoSettings,
    ScenarioConfig,
    StrongSettings,
    Tolerances,
)

from suite_configs import CONFIG_DIR, config_text, standard_suite

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


def test_parse_keeps_hash_inside_quoted_value():
    # a '#' between double quotes belongs to the value, not to a comment
    flat = parse_config_text('label = "run#1"\nmode = "weak"  # after a quote\n'
                             'name = "a # b" # "quoted" note\n')
    assert flat == {"label": "run#1", "mode": "weak", "name": "a # b"}


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


def test_every_pinned_config_builds():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert paths
    for path in paths:
        cfg, flat = load_scenario(str(path))
        assert cfg.label == flat["label"] == path.stem


# (section, ScenarioConfig attribute, settings class, fields set by other keys)
SETTINGS = [
    ("tol", "tolerances", Tolerances, ()),
    ("strong", "strong", StrongSettings, ()),
    ("compare", "compare", CompareSettings, ()),
    ("regularize", "regularize", RegularizeDemoSettings, ()),
    ("material", "material", MaterialLaw, ("a", "b")),
]


def _settable(cls, fixed):
    return [f for f in dataclasses.fields(cls) if f.name not in fixed]


def _other_value(default):
    """A valid value of the same type as ``default`` that differs from it."""
    if default is None:
        return 3
    if isinstance(default, str):
        return "indicator_box"
    if isinstance(default, tuple):
        return (0.3, 0.15)
    if isinstance(default, int):
        return default + 1
    return default / 2 + 0.25


def test_settings_keys_reach_their_dataclass():
    values, lines = {}, []
    for section, _, cls, fixed in SETTINGS:
        for f in _settable(cls, fixed):
            value = _other_value(f.default)
            values[section, f.name] = value
            text = (f'"{value}"' if isinstance(value, str) else
                    ", ".join(map(repr, value)) if isinstance(value, tuple)
                    else repr(value))
            lines.append(f"{section}.{f.name} = {text}\n")
    cfg = build_scenario(parse_config_text(ZERO_DATA + "".join(lines)))
    for section, attr, cls, fixed in SETTINGS:
        for f in _settable(cls, fixed):
            got = getattr(getattr(cfg, attr), f.name)
            assert got == values[section, f.name], (section, f.name)
            assert type(got) is type(values[section, f.name])
    assert len(_settable(Tolerances, ())) == 5


def test_omitted_settings_keys_take_the_dataclass_defaults():
    cfg = build_scenario(parse_config_text(ZERO_DATA))
    for _, attr, cls, fixed in SETTINGS:
        for f in _settable(cls, fixed):
            assert getattr(getattr(cfg, attr), f.name) == f.default, f.name


def test_omitted_initial_fields_take_the_scenario_defaults():
    text = "\n".join(line for line in ZERO_DATA.splitlines()
                     if not line.startswith("initial."))
    cfg = build_scenario(parse_config_text(text))
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    assert (cfg.u0, cfg.v0, cfg.chi0) == (0.0, 0.0, 1.0)
    assert all(getattr(cfg, k) == defaults[k] for k in ("u0", "v0", "chi0"))


@pytest.mark.parametrize("line, key", [
    ("tol.bogus = 1e-3", "bogus"),
    ("strong.n_mode = 3", "n_mode"),
    ("material.gama0 = 1.0", "gama0"),
    ("compare.refine_spce = 2", "refine_spce"),
    ("regularize.delta = 0.1", "delta"),
    ("initial.chi1 = 0.5", "chi1"),
    ("forcing.amplitud = 1.0", "amplitud"),
    ("boundary.weight = 1.0", "weight"),
    ("potential.centre = 0.5", "centre"),
    ("eigs.n_mode = 3", "eigs.n_mode"),
])
def test_unknown_key_in_each_section_exits_one(tmp_path, capsys, line, key):
    cfg = write_cfg(tmp_path, ZERO_DATA + line + "\n")
    assert main(["--config", cfg, "--mode", "weak",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


REMOVED_KEYS = [
    ("tol.vi = 1e-8", "vi"), ("tol.ell = 1e-10", "ell"),
    ("tol.reg = 1e-7", "reg"), ("tol.quad = 1e-12", "quad"),
    ("compare.n_modes = 6", "n_modes"), ("compare.delta = 0.01", "delta"),
    ("compare.nu = 1e-8", "nu"), ("eigs.n_modes = 3", "n_modes"),
    ("seed = 7", "seed"), ("material.growth_p = 2.0", "growth_p"),
    ("material.growth_q = 2.0", "growth_q"),
    # the spatial preset "one" is gone; "constant" gives the same field
    ('forcing.kind = "constant"\nforcing.profile = "one"', "forcing.profile"),
]


@pytest.mark.parametrize("line, key", REMOVED_KEYS,
                         ids=[line.splitlines()[-1] for line, _ in REMOVED_KEYS])
def test_removed_keys_rejected(line, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        build_scenario(parse_config_text(ZERO_DATA + line + "\n"))


def test_seed_flag_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_DATA)
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_bad_settings_value_is_a_config_error():
    with pytest.raises(ConfigError, match="strong.psi_max"):
        build_scenario(parse_config_text(ZERO_DATA + "strong.psi_max = 1, 2\n"))


def test_cli_unknown_tol_override_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_DATA)
    assert main(["--config", cfg, "--mode", "weak", "--out",
                 str(tmp_path / "out"), "--tol-override", "bogus=1"]) == 1
    err = capsys.readouterr().err
    assert "unknown tol keys: ['bogus']" in err and "Traceback" not in err


def test_tol_override_reaches_config_and_digest(tmp_path, monkeypatch):
    seen = []
    real = cli.run_weak

    def spy(config):
        seen.append(config)
        return real(config)

    monkeypatch.setattr(cli, "run_weak", spy)
    cfg = write_cfg(tmp_path, ZERO_DATA)
    out = tmp_path / "out"
    assert run_scenario(cfg, "weak", str(out), [("inner", "1e-8")]) == 0
    assert seen[0].tolerances.inner == 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    _, flat = load_scenario(cfg, {"tol.inner": 1e-8})
    assert manifest["config_hash"] == cli.config_digest(flat)


def _standard_digest(flat):
    canon = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("name",
                         sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_config_digest_is_sha256_of_canonical_json(tmp_path, name):
    path = str(CONFIG_DIR / f"{name}.cfg")
    flats = [load_scenario(path)[1],
             load_scenario(path, {"tol.inner": 1e-8})[1],
             load_scenario(write_cfg(tmp_path, config_text(name).replace(
                 f'label = "{name}"', 'label = "Schädigung χ → 0"')))[1]]
    assert flats[2]["label"] == "Schädigung χ → 0"
    assert [cli.config_digest(f) for f in flats] == [
        _standard_digest(f) for f in flats]
    assert len({cli.config_digest(f) for f in flats}) == 3


def test_config_digest_of_the_quadratic_config_is_pinned():
    _, flat = load_scenario(str(CONFIG_DIR / "quadratic.cfg"))
    assert cli.config_digest(flat) == (
        "a18ed18c09cad367c7edb07f50369c88a538f2d7078900cf62aa3cc666d5fa6e")


def test_missing_builtin_sha256_raises_import_error(tmp_path):
    # no fall-back to hashlib
    name, message, hashlib_loaded = _fresh_run(tmp_path, """
import json, sys
name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
sys.modules[name] = None
try:
    import damage_sim.config
except ImportError as exc:
    print(json.dumps([name, str(exc), "hashlib" in sys.modules]))
""")
    assert message.endswith(f"built-in SHA-256 module {name}")
    assert not hashlib_loaded


def test_invalid_material_exits_one_in_validate_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_DATA + "material.C = -1\n")
    assert main(["--config", cfg, "--mode", "validate",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "C and V must be positive" in err and "Traceback" not in err


def _with_mode(mode):
    return ZERO_DATA.replace('mode = "weak"', f'mode = "{mode}"')


@pytest.mark.parametrize("mode", ["bogus", "sweep"])
def test_unknown_file_mode_exits_one(tmp_path, capsys, mode):
    cfg = write_cfg(tmp_path, _with_mode(mode))
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[damage-sim] error:")
    assert f"unknown mode '{mode}'" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("stride", [0, -2])
def test_output_stride_below_one_exits_one(tmp_path, capsys, stride):
    cfg = write_cfg(tmp_path, ZERO_DATA + f"output.stride = {stride}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("[damage-sim] error:")
    assert "output stride must be at least 1" in err
    assert len(err.strip().splitlines()) == 1


def test_validate_mode_from_the_file(tmp_path):
    cfg = write_cfg(tmp_path, _with_mode("validate"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["config_ok"] is True and payload["config_error"] == ""


@pytest.mark.parametrize("line, message", [
    ("mesh.N = 2", "mesh needs at least 3 nodes"),
    ("time.K = 0", "K must be at least 1"),
])
def test_validate_mode_reports_a_bad_size_in_its_payload(tmp_path, line,
                                                         message):
    # a bad mesh size is a scenario defect like a bad step count: both end
    # in config_ok = false and exit 2, not in an error exit
    key = line.split(" = ")[0]
    text = re.sub(rf"^{re.escape(key)} = .*$", line, _with_mode("validate"),
                  flags=re.M)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 2
    payload = json.loads((out / "validation.json").read_text())
    assert payload["config_ok"] is False
    assert message in payload["config_error"]


def test_omitted_top_level_keys_take_the_scenario_defaults():
    top = ("label", "mode", "mesh.", "time.", "output.")
    text = "\n".join(line for line in ZERO_DATA.splitlines()
                     if not line.startswith(top))
    cfg = build_scenario(parse_config_text(text))
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    names = ("N", "L", "T", "K", "mode", "output_stride", "label")
    assert [getattr(cfg, k) for k in names] == [defaults[k] for k in names]
    assert (cfg.N, cfg.L, cfg.T, cfg.K) == (201, 1.0, 1.0, 400)


@pytest.mark.parametrize("key, attr", [
    ("mesh.N", "N"), ("time.K", "K"), ("output.stride", "output_stride"),
    ("strong.n_modes", "strong.n_modes"),
    ("strong.steps", "strong.steps"), ("strong.schedule_n", "strong.schedule_n"),
    ("compare.refine_space", "compare.refine_space"),
    ("compare.refine_time", "compare.refine_time"),
    ("regularize.grid_n", "regularize.grid_n"),
])
def test_counts_must_be_integral(key, attr):
    base = parse_config_text(ZERO_DATA)
    cfg = build_scenario({**base, key: 5.0})
    got = operator.attrgetter(attr)(cfg)
    assert got == 5 and type(got) is int
    for value in (5.5, 6.7, float("inf")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_scenario({**base, key: value})


@pytest.mark.parametrize("key, extra", [
    ("material.a_scale", {}),
    ("material.b_value", {}),
    ("material.b_scale", {"material.b": "quadratic_floor"}),
    ("material.b_floor", {"material.b": "quadratic_floor"}),
    ("forcing.amplitude", {"forcing.kind": "sin_t"}),
    ("forcing.profile_width", {"forcing.kind": "constant",
                               "forcing.profile": "bump"}),
    ("boundary.slope", {"boundary.kind": "linear_t"}),
    ("initial.u0_value", {"initial.u0": "constant"}),
])
def test_bad_preset_number_names_its_key(key, extra):
    base = {**parse_config_text(ZERO_DATA), **extra}
    base.pop("potential.center")
    for value in ("x", [1.0, 2.0]):
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_scenario({**base, key: value})


@pytest.mark.parametrize("name, param", [("quadratic", "center"),
                                         ("logarithmic", "c1")])
def test_bad_potential_parameter_names_it(name, param):
    base = parse_config_text(ZERO_DATA)
    base.pop("potential.center")
    base["potential.name"] = name
    message = f"bad value for potential parameter '{param}'"
    for value in ("x", [1.0, 2.0]):
        with pytest.raises(ValueError, match=message):
            build_scenario({**base, f"potential.{param}": value})
    # a misspelled key is unknown, whatever its value
    with pytest.raises(ValueError, match=r"unexpected parameters .*'nmae'"):
        build_scenario({**base, "potential.nmae": "log"})


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
    # the four pointwise checks, and nothing that cannot fail
    assert [c["name"] for c in payload["material"]["checks"]] == [
        "a_nondecreasing", "a_vanishing_nonpositive", "a_convex", "b_floor"]


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


# an expression, run in the fresh interpreter, for the modules no run may
# load: any scipy module (the LAPACK routines come from the OpenBLAS numpy
# bundles), and hashlib and the OpenSSL bindings (the config digest uses
# CPython's built-in SHA-256)
HEAVY = ("sorted(m for m in sys.modules if m.startswith('scipy') "
         "or m in ('hashlib', '_hashlib', '_ssl'))")


def _fresh_run(tmp_path, script):
    """Run ``script`` in a fresh interpreter that imports this damage_sim;
    returns the JSON of its last output line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(damage_sim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_package(tmp_path):
    loaded = _fresh_run(tmp_path, f"""
import json, sys
import damage_sim.cli
print(json.dumps({HEAVY}))
""")
    assert loaded == []


def test_no_module_has_a_scipy_import_statement():
    # the LAPACK routines come from the OpenBLAS numpy bundles; no module of
    # the package imports scipy or one of its submodules, nor hashlib, which
    # maps OpenSSL
    pkg = os.path.dirname(os.path.abspath(damage_sim.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules
                      if m.split(".")[0] in ("scipy", "hashlib")]
    assert found == []


@pytest.mark.parametrize("symbol", ["scipy_dptsv_64_", "scipy_dgtsv_64_"])
def test_missing_lapack_symbol_raises_import_error(tmp_path, symbol):
    # as with a numpy built against another BLAS: the lookup through numpy's
    # extension finds no such symbol
    message = _fresh_run(tmp_path, f"""
import ctypes, json

lookup = ctypes.CDLL.__getitem__

def getitem(self, name):
    if name == {symbol!r}:
        raise AttributeError(name)
    return lookup(self, name)

ctypes.CDLL.__getitem__ = getitem
try:
    import damage_sim.discretization
except ImportError as exc:
    print(json.dumps(str(exc)))
""")
    assert "scipy_dptsv_64_" in message and "scipy_dgtsv_64_" in message


def test_weak_run_imports_no_scipy_quadrature_or_splines(tmp_path):
    # preset time factors have closed-form means, so a weak run needs only
    # numpy
    cfg = write_cfg(tmp_path, ZERO_DATA + 'forcing.kind = "sin_t"\n'
                    'forcing.amplitude = 0.5\nforcing.freq = 3.0\n')
    status, loaded = _fresh_run(tmp_path, f"""
import json, sys
from damage_sim.cli import run_scenario
status = run_scenario({cfg!r}, "weak", "out")
print(json.dumps([status, {HEAVY}]))
""")
    assert status == 0
    assert loaded == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_weak_run_maps_no_openssl_library(tmp_path):
    # nor scipy's LAPACK module and the second OpenBLAS it links: numpy's
    # OpenBLAS is the only one
    cfg = write_cfg(tmp_path, ZERO_DATA)
    status, mapped = _fresh_run(tmp_path, """
import json, os
from damage_sim.cli import run_scenario
status = run_scenario(%r, "weak", "out")
with open("/proc/self/maps") as fh:
    files = {os.path.basename(line.split()[-1]) for line in fh
             if len(line.split()) > 5}
print(json.dumps([status, sorted(f for f in files if any(
    k in f for k in ("libcrypto", "libssl", "openblas", "_flapack")))]))
""" % cfg)
    assert status == 0
    assert not any(k in f for f in mapped
                   for k in ("libcrypto", "libssl", "_flapack"))
    assert len([f for f in mapped if "openblas" in f]) == 1


@pytest.mark.parametrize("potential", ["quadratic", "logarithmic",
                                       "smooth_double_well"])
def test_strong_run_imports_no_scipy_quadrature_or_splines(tmp_path, potential):
    # the mollifier's moment tables and its Gauss rule are built with numpy
    # alone
    cfg = write_cfg(tmp_path, STRONG_SMALL.replace(
        'potential.name = "quadratic"', f'potential.name = "{potential}"'))
    status, seen = _fresh_run(tmp_path, f"""
import json, sys
from damage_sim.cli import run_scenario
status = run_scenario({cfg!r}, "strong", "out")
print(json.dumps([status, {HEAVY}]))
""")
    assert status == 0
    assert seen == []


def test_strong_mode_outputs(tmp_path):
    cfg = write_cfg(tmp_path, STRONG_SMALL)
    out = tmp_path / "out"
    status = run_scenario(cfg, "strong", str(out))
    assert status == 0
    monitor = json.loads((out / "monitor.json").read_text())
    assert monitor["verdict"] == "completed"
    assert set(monitor) == {
        "psi_max", "times", "psi", "ut_h2", "chi_h2", "omega_l2", "int_ut_h3",
        "nu_omega_t_sq", "horizon_time", "verdict"}
    report = json.loads((out / "report.json").read_text())
    assert report["mean_identity_residual_max"] <= 1e-9


COMPARE_SMALL = ZERO_DATA.replace('label = "zero"', 'label = "cmp"') + (
    'initial.u0 = "cosine_mix"\n'
    'initial.u0_coeffs = 0.0, 0.1\n'
    'material.a = "cubic_plus"\n'
    'potential.center = 0.0\n'
    "compare.refine_space = 2\n"
    "compare.refine_time = 2\n"
    "strong.n_modes = 6\n")


def test_compare_mode_produces_relative_csv(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_SMALL + "strong.delta = 0.01\n"
                    "strong.nu = 1e-8\n")
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


def test_compare_run_imports_no_scipy_package(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_SMALL + "strong.delta = 0.01\n"
                    "strong.nu = 1e-8\n")
    status, loaded = _fresh_run(tmp_path, f"""
import json, sys
from damage_sim.cli import run_scenario
status = run_scenario({cfg!r}, "compare", "out")
print(json.dumps([status, {HEAVY}]))
""")
    assert status == 0
    assert loaded == []


def test_compare_surrogate_follows_strong_schedule(tmp_path, monkeypatch):
    # the surrogate takes every strong setting, schedule_n included
    params = []
    real = cli.run_strong

    def spy(config):
        traj, monitor = real(config)
        params.append(traj.extras["params"])
        return traj, monitor

    monkeypatch.setattr(cli, "run_strong", spy)
    cfg = write_cfg(tmp_path, COMPARE_SMALL + "strong.schedule_n = 2\n")
    assert run_scenario(cfg, "compare", str(tmp_path / "out")) in (0, 2)
    assert [(p.delta, p.nu, p.n_modes, p.steps) for p in params] == [
        (0.25, 2.0 ** -8, 6, 20)]


def test_compare_mode_rejects_nonsmooth_potential_before_any_run(
        tmp_path, monkeypatch, capsys):
    # the relative energy needs W'', so indicator_box is refused by
    # ScenarioConfig.validate before the weak run, not by rei_check after
    # both runs
    strong_runs = []

    def spy(config):
        strong_runs.append(config)
        raise RuntimeError("the strong surrogate should not run")

    monkeypatch.setattr(cli, "run_strong", spy)
    text = config_text("compare_demo").replace(
        'potential.name = "quadratic"', 'potential.name = "indicator_box"')
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, text),
                 "--out", str(out)]) == 1
    assert "smooth potential" in capsys.readouterr().err
    assert strong_runs == []
    assert not out.exists() or not any(out.iterdir())


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
    cfg = write_cfg(tmp_path, ZERO_DATA + "strong.n_modes = 3\n")
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
                    + "strong.n_modes = 3\n")
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


def test_sweep_matches_direct_runs(tmp_path, monkeypatch):
    # a weak and a strong run, and a validate run that fails (exit 2)
    monkeypatch.setenv("DAMAGE_SIM_THREADS", "1")
    failing = _with_mode("validate").replace('material.a = "quadratic_plus"',
                                             'material.a = "identity"')
    outputs = {"weak": "report.json", "strong": "report.json",
               "failing": "validation.json"}
    paths = [write_cfg(tmp_path, text, f"{name}.cfg") for name, text in
             zip(outputs, (ZERO_DATA, STRONG_SMALL, failing))]
    direct = [run_scenario(path, None, str(tmp_path / "direct" / name))
              for path, name in zip(paths, outputs)]
    assert direct == [0, 0, 2]
    sweep = tmp_path / "sweep"
    assert main(["--mode", "sweep", "--sweep-configs", *paths,
                 "--out", str(sweep)]) == max(direct)
    for name, report in outputs.items():
        assert ((sweep / name / report).read_bytes()
                == (tmp_path / "direct" / name / report).read_bytes())


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
