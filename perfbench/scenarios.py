"""Workload definitions and the seeded scenario generator.

Every scenario is derived from one of the pinned ``configs/*.cfg`` files by
a text-level rewrite: fixed overrides (mesh size, output stride, potential,
horizon) and, for seeds other than 0, amplitude factors drawn from a narrow
band.  Seed 0 reproduces the pinned files exactly.  The program only ever
sees the generated files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# Seeds other than 0 scale every amplitude key below by a factor drawn
# uniformly from [1 - BAND, 1 + BAND].  Levels (chi0 constants, the mean
# coefficient of a cosine mix) and all sizes, horizons, modes and
# potentials stay fixed.
BAND = 0.05
LOAD_KEYS = ("forcing.amplitude", "boundary.amplitude")
# (key, index of the first scaled list entry): for a cosine mix the entry 0
# is the mean level, the rest are oscillation amplitudes.
INITIAL_KEYS = (("initial.u0_amplitude", 0), ("initial.u0_coeffs", 0),
                ("initial.chi0_coeffs", 1))


@dataclass(frozen=True)
class Scenario:
    name: str
    base: str                      # stem of the pinned config file
    runner: str                    # "cli" or "strong_export"
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "weak_suite": (
        Scenario("quadratic", "quadratic", "cli"),
        Scenario("logarithmic", "logarithmic", "cli"),
        Scenario("indicator_box", "indicator_box", "cli"),
        Scenario("strong_damage", "strong_damage", "cli"),
        Scenario("robin_loaded", "robin_loaded", "cli"),
    ),
    # The spectral runs (quadratic potential: closed-form smoothed Yosida)
    # and the logarithmic-potential run (smoothed-Yosida quadrature) share
    # one workload so that each benchmark run can be long enough to be
    # steady; the traced run reports the layers per scenario as well.
    "strong_suite": (
        Scenario("strong_demo", "strong_demo", "cli"),
        Scenario("strong_demo_n1025", "strong_demo", "cli",
                 {"mesh.N": 1025, "output.stride": 10}),
        Scenario("compare_demo", "compare_demo", "cli"),
        Scenario("strong_log", "strong_demo", "strong_export",
                 {"potential.name": '"logarithmic"', "potential.c1": 1.0,
                  "time.T": 0.04, "strong.steps": 8}),
    ),
}


def _scale_value(raw: str, factor: float, first: int) -> str:
    """Scale a number or comma list from entry ``first`` on."""
    nums = [float(p) for p in raw.split(",")]
    return ", ".join(repr(v * factor if i >= first else v)
                     for i, v in enumerate(nums))


def factors(seed: int, scenario: str) -> tuple:
    """(load factor, initial-data factor) for one scenario; (1, 1) at seed 0."""
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(f"{seed}:{scenario}")
    return (1.0 + BAND * (2.0 * rng.random() - 1.0),
            1.0 + BAND * (2.0 * rng.random() - 1.0))


def scenario_text(base_text: str, scenario: Scenario, seed: int) -> str:
    """Rewrite one pinned config for ``scenario`` at ``seed``."""
    load, init = factors(seed, scenario.name)
    scaled = {k: (load, 0) for k in LOAD_KEYS}
    scaled.update({k: (init, first) for k, first in INITIAL_KEYS})
    pending = dict(scenario.overrides)
    lines = []
    for line in base_text.splitlines():
        body = line.split("#", 1)[0]
        if "=" in body:
            key, raw = (s.strip() for s in body.split("=", 1))
            if key in pending:
                line = f"{key} = {pending.pop(key)}"
            elif key in scaled and scaled[key][0] != 1.0:
                line = f"{key} = {_scale_value(raw, *scaled[key])}"
        lines.append(line)
    lines.extend(f"{k} = {v}" for k, v in pending.items())
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, config_dir: str, out_dir: str) -> list:
    """Write the workload's scenario files; returns [(Scenario, path)]."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for sc in WORKLOADS[workload]:
        with open(os.path.join(config_dir, sc.base + ".cfg")) as fh:
            text = scenario_text(fh.read(), sc, seed)
        path = os.path.join(out_dir, sc.name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        written.append((sc, path))
    return written
