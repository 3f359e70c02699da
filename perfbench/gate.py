"""Correctness gate applied to every scenario run of the benchmark.

A run fails when it raised, when its exit status is non-zero (weak mode:
EDI or UEDI failed; compare mode: REI failed), or, for strong runs, when
the mean-identity residual exceeds 1e-8 (acceptance criterion 07), the
blow-up horizon was hit, or an output field is non-finite.  At seed 0 the
final state must also match the stored reference within REF_TOL.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np

MEAN_IDENTITY_TOL = 1e-8
# Relative to 1 + max|reference|.  Two orders above the loosest solver
# tolerance a run uses (stage residual 1e-8), so reordered floating-point
# sums pass, while any change of the computed solution does not.
REF_TOL = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_seed0.json")


def _snapshots(outdir: str) -> list:
    return sorted(glob.glob(os.path.join(outdir, "snap_*.csv")))


def check_run(status: int, report: dict, outdir: str) -> list:
    """Reasons the run fails the gate; empty when it passes."""
    reasons = []
    if status != 0:
        reasons.append(f"exit status {status}")
    if report.get("mode") == "strong":
        mean_res = report["mean_identity_residual_max"]
        if not mean_res <= MEAN_IDENTITY_TOL:
            reasons.append(f"mean-identity residual {mean_res:.3e} "
                           f"> {MEAN_IDENTITY_TOL:g}")
        if report["horizon_hit"]:
            reasons.append("blow-up horizon hit")
        # %.17g spells non-finite values as nan, inf and -inf
        for path in _snapshots(outdir):
            with open(path) as fh:
                text = fh.read()
            if "nan" in text or "inf" in text:
                reasons.append(f"non-finite field in {os.path.basename(path)}")
                break
    return reasons


def final_state(outdir: str) -> dict:
    """Final u and chi of a run, or the last row of relative.csv for a
    compare run (which writes no snapshots)."""
    relative = os.path.join(outdir, "relative.csv")
    if os.path.exists(relative):
        return {"relative": np.loadtxt(relative, delimiter=",", skiprows=1)[-1]}
    data = np.loadtxt(_snapshots(outdir)[-1], delimiter=",", skiprows=1)
    return {"u": data[:, 1], "chi": data[:, 3]}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_reference(final: dict, ref: dict) -> list:
    """Reasons ``final`` differs from the stored reference of the scenario."""
    reasons = []
    for key, expected in ref.items():
        expected = np.asarray(expected, dtype=float)
        got = np.asarray(final.get(key, []), dtype=float)
        if got.shape != expected.shape:
            reasons.append(f"{key}: shape {got.shape} != {expected.shape}")
            continue
        err = float(np.max(np.abs(got - expected))) if got.size else 0.0
        limit = REF_TOL * (1.0 + float(np.max(np.abs(expected))))
        if not err <= limit:
            reasons.append(f"{key}: max deviation {err:.3e} from reference "
                           f"> {limit:.3e}")
    return reasons
