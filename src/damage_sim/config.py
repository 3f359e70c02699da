"""Flat dotted-key scenario files and preset builders.

One file fully determines a run.  The format is plain text, one
``dotted.key = value`` per line; values are numbers, booleans, quoted
strings, or comma lists of numbers.  Example::

    label = "quadratic"
    mode = "weak"
    mesh.N = 201
    mesh.L = 1.0
    time.T = 1.0
    time.K = 400
    material.a = "quadratic_plus"
    potential.name = "quadratic"
    initial.chi0 = "constant"
    initial.chi0_value = 0.9
    forcing.kind = "sin_t"
    forcing.amplitude = 0.5

Time presets, for ``forcing.kind`` and ``boundary.kind``: ``zero``;
``constant`` (``amplitude``); ``sin_t``, amplitude * sin(2 pi freq t)
(``amplitude``, ``freq``, both default 1); ``linear_t``, slope * t
(``slope``, default 1); ``table`` (``times``, ``values``, linear in t).
Each builds a time factor of ``forcing`` whose interval means are exact
and in closed form, so no preset needs quadrature.

Unknown keys are rejected with their full path.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .forcing import (
    BoundaryForcing,
    ConstantFactor,
    Forcing,
    LinearFactor,
    SineFactor,
    TableFactor,
)
from .model import (
    MaterialLaw,
    ScenarioConfig,
    StrongSettings,
    Tolerances,
    make_potential,
    scalar_fn,
)

__all__ = [
    "parse_config_text",
    "build_scenario",
    "load_scenario",
    "config_digest",
]


class ConfigError(ValueError):
    pass


def _parse_value(raw: str, key: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in raw:
        try:
            return [float(p) for p in raw.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"bad list value for {key}: {raw!r}") from None
    try:
        if raw.lstrip("+-").isdigit():
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_text(text: str) -> dict:
    flat = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        flat[key] = _parse_value(raw, key)
    return flat


class _Flat:
    def __init__(self, data: dict):
        self.data = dict(data)
        self.used = set()

    def get(self, key, default=None):
        self.used.add(key)
        return self.data.get(key, default)

    def group(self, prefix):
        keys = [k for k in self.data if k.startswith(prefix + ".")]
        self.used.update(keys)
        return {k[len(prefix) + 1:]: self.data[k] for k in keys}

    def unused(self):
        return sorted(set(self.data) - self.used)


def _space_profile(kind: str, opts: dict, prefix: str):
    if kind in ("one", "constant"):
        value = float(opts.pop(f"{prefix}_value", 1.0))
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    if kind == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "cosine_mix":
        coeffs = opts.pop(f"{prefix}_coeffs", [1.0])
        if isinstance(coeffs, (int, float)):
            coeffs = [float(coeffs)]

        def profile(x, coeffs=tuple(coeffs)):
            x = np.asarray(x, dtype=float)
            L = x[-1] if x.ndim else 1.0
            out = np.zeros_like(x)
            for k, a in enumerate(coeffs):
                out += a * np.cos(k * math.pi * x / L)
            return out

        return profile
    if kind == "bump":
        amp = float(opts.pop(f"{prefix}_amplitude", 1.0))
        center = float(opts.pop(f"{prefix}_center", 0.5))
        width = float(opts.pop(f"{prefix}_width", 0.1))
        return lambda x: amp * np.exp(-((np.asarray(x, dtype=float) - center)
                                        / width) ** 2)
    raise ConfigError(f"unknown spatial preset {kind!r}")


def _time_factor(kind: str, opts: dict):
    if kind == "zero":
        return ConstantFactor(0.0)
    if kind == "constant":
        return ConstantFactor(float(opts.pop("amplitude", 1.0)))
    if kind == "sin_t":
        amp = float(opts.pop("amplitude", 1.0))
        freq = float(opts.pop("freq", 1.0))
        return SineFactor(amp, freq)
    if kind == "linear_t":
        slope = float(opts.pop("slope", 1.0))
        return LinearFactor(slope)
    if kind == "table":
        times = opts.pop("times")
        values = opts.pop("values")
        return TableFactor(np.asarray(times), np.asarray(values))
    raise ConfigError(f"unknown time preset {kind!r}")


def _initial_field(group: dict, name: str):
    kind = group.pop(name, "zero")
    if isinstance(kind, (int, float)):
        return float(kind)
    if kind == "zero":
        return 0.0
    if kind == "constant":
        return float(group.pop(f"{name}_value", 0.0))
    return _space_profile(kind, group, name)


def build_scenario(flat: dict) -> ScenarioConfig:
    f = _Flat(flat)

    pot_group = f.group("potential")
    pot_name = pot_group.pop("name", "quadratic")
    potential = make_potential(pot_name, pot_group)

    mat_group = f.group("material")
    a_name = mat_group.pop("a", "quadratic_plus")
    a_params = {}
    if "a_scale" in mat_group:
        a_params["scale"] = float(mat_group.pop("a_scale"))
    b_name = mat_group.pop("b", "constant")
    b_params = {}
    if b_name == "constant" and "b_value" in mat_group:
        b_params["value"] = float(mat_group.pop("b_value"))
    if b_name == "quadratic_floor":
        b_params["floor"] = float(mat_group.pop("b_floor_param",
                                                mat_group.get("b_floor", 1.0)))
        b_params["scale"] = float(mat_group.pop("b_scale", 0.0))
    material = MaterialLaw(
        a=scalar_fn(a_name, **a_params),
        b=scalar_fn(b_name, **b_params),
        b_floor=float(mat_group.pop("b_floor", 1.0)),
        C=float(mat_group.pop("C", 1.0)),
        V=float(mat_group.pop("V", 1.0)),
        ell=potential.ell,
        growth_p=float(mat_group.pop("growth_p", 1.0)),
        growth_q=float(mat_group.pop("growth_q", 1.0)),
        gamma0=float(mat_group.pop("gamma0", 1.0)),
        gamma1=float(mat_group.pop("gamma1", 0.0)),
        gamma2=float(mat_group.pop("gamma2", 0.0)),
    )
    if mat_group:
        raise ConfigError(f"unknown material keys: {sorted(mat_group)}")

    init_group = f.group("initial")
    u0 = _initial_field(init_group, "u0")
    v0 = _initial_field(init_group, "v0")
    chi0 = _initial_field(init_group, "chi0")
    if init_group:
        raise ConfigError(f"unknown initial keys: {sorted(init_group)}")

    forcing_group = f.group("forcing")
    fk = forcing_group.pop("kind", "zero")
    if fk == "zero":
        forcing = Forcing.zero()
    else:
        factor = _time_factor(fk, forcing_group)
        pkind = forcing_group.pop("profile", "one")
        profile = _space_profile(pkind, forcing_group, "profile")
        forcing = Forcing(profile=profile, factor=factor)
    if forcing_group:
        raise ConfigError(f"unknown forcing keys: {sorted(forcing_group)}")

    bdry_group = f.group("boundary")
    bk = bdry_group.pop("kind", "zero")
    if bk == "zero":
        boundary = BoundaryForcing.zero()
    else:
        factor = _time_factor(bk, bdry_group)
        weights = bdry_group.pop("weights", [1.0, 1.0])
        boundary = BoundaryForcing(factor=factor, weights=tuple(weights))
    if bdry_group:
        raise ConfigError(f"unknown boundary keys: {sorted(bdry_group)}")

    tol_group = f.group("tol")
    tolerances = Tolerances(**{k: float(v) for k, v in tol_group.items()})

    strong_group = f.group("strong")
    varpi0 = strong_group.pop("varpi0", 0.0)
    if varpi0 != "slaved":
        varpi0 = float(varpi0)
    strong = StrongSettings(
        n_modes=int(strong_group.pop("n_modes", 12)),
        delta=float(strong_group.pop("delta", 0.125)),
        nu=float(strong_group.pop("nu", 2.0 ** -12)),
        steps=int(strong_group.pop("steps", 200)),
        schedule_n=(int(strong_group["schedule_n"])
                    if "schedule_n" in strong_group else None),
        varpi0=varpi0,
        psi_max=float(strong_group.pop("psi_max", 1e6)),
        startup_steps=int(strong_group.pop("startup_steps", 2)),
    )
    strong_group.pop("schedule_n", None)
    if strong_group:
        raise ConfigError(f"unknown strong keys: {sorted(strong_group)}")

    # consumed by the CLI pipelines for the corresponding modes
    f.group("compare")
    f.group("eigs")
    f.group("regularize")

    config = ScenarioConfig(
        N=int(f.get("mesh.N", 201)),
        L=float(f.get("mesh.L", 1.0)),
        T=float(f.get("time.T", 1.0)),
        K=int(f.get("time.K", 400)),
        material=material,
        potential=potential,
        u0=u0, v0=v0, chi0=chi0,
        forcing=forcing, boundary=boundary,
        mode=str(f.get("mode", "weak")),
        tolerances=tolerances,
        strong=strong,
        output_stride=int(f.get("output.stride", 1)),
        seed=int(f.get("seed", 0)),
        label=str(f.get("label", "")),
    )
    unused = f.unused()
    if unused:
        raise ConfigError(f"unknown configuration keys: {unused}")
    return config


def load_scenario(path: str):
    with open(path) as fh:
        text = fh.read()
    flat = parse_config_text(text)
    return build_scenario(flat), flat


def config_digest(flat: dict) -> str:
    canon = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()

