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

Sections: top-level ``label``, ``mode`` (one of ``MODES``),
``mesh.N``/``L``, ``time.T``/``K`` and ``output.stride``, which set the
``ScenarioConfig`` fields of those names (``output_stride`` for the last)
and take their defaults there when absent; ``potential`` (``name`` and
the preset's parameters, among them ``ell``); ``material`` (the shapes
``a``, ``a_scale``, ``b``, ``b_value``, ``b_scale``, and the numeric
fields of ``MaterialLaw``, whose ``b_floor`` is also the floor of the
``quadratic_floor`` shape); ``initial`` (``u0``, ``v0``, ``chi0``; absent
ones take the ``ScenarioConfig`` defaults, so ``chi0`` = 1, intact);
``forcing``/``boundary`` (``kind``, the time preset's keys,
``profile``/``weights``; an absent or ``zero`` kind builds
``Forcing.zero()``/``BoundaryForcing.zero()``); and ``tol``, ``strong``,
``compare``, ``regularize``, whose keys are the fields of ``Tolerances``,
``StrongSettings``, ``CompareSettings`` and ``RegularizeDemoSettings``.
Throughout, a value takes the type of the field's default (a count must be
integral), and an absent key the default itself; a preset's numeric
parameter must be a number.  A bad value is a ``ConfigError`` that names
its key; ``make_potential`` types the ``potential`` parameters itself and
names a bad or unknown one in its ``ValueError``.

Time presets, for ``forcing.kind`` and ``boundary.kind``: ``zero``;
``constant`` (``amplitude``); ``sin_t``, amplitude * sin(2 pi freq t)
(``amplitude``, ``freq``, both default 1); ``linear_t``, slope * t
(``slope``, default 1); ``table`` (``times``, ``values``, linear in t).
Each builds a time factor of ``forcing`` whose interval means are exact
and in closed form, so no preset needs quadrature.

Unknown keys are rejected with their section and name.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import re
import sys

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
    CompareSettings,
    MaterialLaw,
    RegularizeDemoSettings,
    ScenarioConfig,
    StrongSettings,
    Tolerances,
    make_potential,
    scalar_fn,
)

__all__ = [
    "MODES",
    "parse_config_text",
    "build_scenario",
    "load_scenario",
    "config_digest",
]


MODES = ("weak", "strong", "compare", "regularize-demo", "eigs", "validate")

# top-level key -> ScenarioConfig field
_TOP_LEVEL = {"label": "label", "mode": "mode",
              "mesh.N": "N", "mesh.L": "L", "time.T": "T", "time.K": "K",
              "output.stride": "output_stride"}

# a double-quoted string (kept) or a comment (dropped): a '#' inside quotes
# is part of the value
_QUOTED_OR_COMMENT = re.compile(r'("[^"]*")|#.*')


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
        stripped = _QUOTED_OR_COMMENT.sub(lambda m: m.group(1) or "",
                                          line).strip()
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


def _pop_float(opts: dict, key: str, default: float, section: str) -> float:
    """Pop ``key`` from a section's keys as a float; a bad value is a
    ConfigError that names ``section.key``."""
    return _typed(opts.pop(key, default), 0.0, f"{section}.{key}")


def _space_profile(kind: str, opts: dict, prefix: str, section: str):
    if kind == "constant":
        value = _pop_float(opts, f"{prefix}_value", 1.0, section)
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
        amp = _pop_float(opts, f"{prefix}_amplitude", 1.0, section)
        center = _pop_float(opts, f"{prefix}_center", 0.5, section)
        width = _pop_float(opts, f"{prefix}_width", 0.1, section)
        return lambda x: amp * np.exp(-((np.asarray(x, dtype=float) - center)
                                        / width) ** 2)
    raise ConfigError(f"unknown spatial preset for {section}.{prefix}: "
                      f"{kind!r}")


def _time_factor(kind: str, opts: dict, section: str):
    if kind == "zero":
        return ConstantFactor(0.0)
    if kind == "constant":
        return ConstantFactor(_pop_float(opts, "amplitude", 1.0, section))
    if kind == "sin_t":
        return SineFactor(_pop_float(opts, "amplitude", 1.0, section),
                          _pop_float(opts, "freq", 1.0, section))
    if kind == "linear_t":
        return LinearFactor(_pop_float(opts, "slope", 1.0, section))
    if kind == "table":
        times = opts.pop("times")
        values = opts.pop("values")
        return TableFactor(np.asarray(times), np.asarray(values))
    raise ConfigError(f"unknown time preset {kind!r}")


def _initial_field(group: dict, name: str):
    kind = group.pop(name)
    if isinstance(kind, (int, float)):
        return float(kind)
    if kind == "zero":
        return 0.0
    if kind == "constant":
        return _pop_float(group, f"{name}_value", 0.0, "initial")
    return _space_profile(kind, group, name, "initial")


def _typed(value, default, key: str):
    """``value`` as the type of a settings field's ``default``; a count
    (an int field, or ``strong.schedule_n``, unset by default) must be
    integral."""
    if key == "strong.varpi0" and value == "slaved":
        return value
    try:
        if isinstance(default, tuple):  # a number list
            return tuple(float(v) for v in np.atleast_1d(value))
        if default is None or isinstance(default, int):
            count = int(value)
            if count != float(value):
                raise ValueError
            return count
        return type(default)(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value for {key}: {value!r}") from None


def _settings(cls, group: dict, section: str, **fixed):
    """Build the settings dataclass ``cls`` from the keys of one section.

    A key must name an init field of ``cls`` that is not in ``fixed``; its
    value takes the type of the field's default, and an absent key takes
    the default itself.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)
              if f.init and f.name not in fixed}
    unknown = sorted(set(group) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")
    return cls(**fixed, **{k: _typed(v, fields[k].default, f"{section}.{k}")
                           for k, v in group.items()})


def build_scenario(flat: dict) -> ScenarioConfig:
    f = _Flat(flat)

    pot_group = f.group("potential")
    pot_name = pot_group.pop("name", "quadratic")
    potential = make_potential(pot_name, pot_group)

    mat_group = f.group("material")
    a_name = mat_group.pop("a", "quadratic_plus")
    a_params = {}
    if "a_scale" in mat_group:
        a_params["scale"] = _pop_float(mat_group, "a_scale", 1.0, "material")
    b_name = mat_group.pop("b", "constant")
    b_floor = _pop_float(mat_group, "b_floor", MaterialLaw.b_floor, "material")
    b_params = {}
    if b_name == "constant" and "b_value" in mat_group:
        b_params["value"] = _pop_float(mat_group, "b_value", 1.0, "material")
    if b_name == "quadratic_floor":
        b_params["floor"] = b_floor
        b_params["scale"] = _pop_float(mat_group, "b_scale", 0.0, "material")
    material = _settings(MaterialLaw, mat_group, "material",
                         a=scalar_fn(a_name, **a_params),
                         b=scalar_fn(b_name, **b_params), b_floor=b_floor)

    init_group = f.group("initial")
    initial = {name: _initial_field(init_group, name)
               for name in ("u0", "v0", "chi0") if name in init_group}
    if init_group:
        raise ConfigError(f"unknown initial keys: {sorted(init_group)}")

    forcing_group = f.group("forcing")
    fk = forcing_group.pop("kind", "zero")
    if fk == "zero":
        forcing = Forcing.zero()
    else:
        factor = _time_factor(fk, forcing_group, "forcing")
        pkind = forcing_group.pop("profile", "constant")
        profile = _space_profile(pkind, forcing_group, "profile", "forcing")
        forcing = Forcing(profile=profile, factor=factor)
    if forcing_group:
        raise ConfigError(f"unknown forcing keys: {sorted(forcing_group)}")

    bdry_group = f.group("boundary")
    bk = bdry_group.pop("kind", "zero")
    if bk == "zero":
        boundary = BoundaryForcing.zero()
    else:
        factor = _time_factor(bk, bdry_group, "boundary")
        weights = bdry_group.pop("weights", [1.0, 1.0])
        boundary = BoundaryForcing(factor=factor, weights=tuple(weights))
    if bdry_group:
        raise ConfigError(f"unknown boundary keys: {sorted(bdry_group)}")

    defaults = {fd.name: fd.default for fd in dataclasses.fields(ScenarioConfig)}
    top = {name: _typed(f.get(key), defaults[name], key)
           for key, name in _TOP_LEVEL.items() if key in flat}
    config = ScenarioConfig(
        material=material,
        potential=potential,
        **top,
        **initial,
        forcing=forcing, boundary=boundary,
        tolerances=_settings(Tolerances, f.group("tol"), "tol"),
        strong=_settings(StrongSettings, f.group("strong"), "strong"),
        compare=_settings(CompareSettings, f.group("compare"), "compare"),
        regularize=_settings(RegularizeDemoSettings, f.group("regularize"),
                             "regularize"),
    )
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}")
    unused = f.unused()
    if unused:
        raise ConfigError(f"unknown configuration keys: {unused}")
    return config


def load_scenario(path: str, overrides=None):
    """Parse and build the scenario file at ``path``; ``overrides`` maps
    dotted keys to values that replace or add to the file's.  Returns
    (ScenarioConfig, flat dict)."""
    with open(path) as fh:
        text = fh.read()
    flat = {**parse_config_text(text), **(overrides or {})}
    return build_scenario(flat), flat


_SHA256_MODULE = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
try:
    _sha256 = importlib.import_module(_SHA256_MODULE).sha256
except ImportError:
    raise ImportError(f"damage_sim needs CPython's built-in SHA-256 module "
                      f"{_SHA256_MODULE}") from None


def config_digest(flat: dict) -> str:
    """SHA-256 hex digest of ``flat`` as canonical JSON (sorted keys, no
    spaces).  CPython's built-in SHA-256 module computes it, not hashlib,
    whose import maps OpenSSL's libcrypto (about 4 MB resident) for this
    one small digest per run."""
    canon = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return _sha256(canon.encode()).hexdigest()

