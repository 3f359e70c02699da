"""Trajectory containers and byte-stable serialization.

A trajectory is an ordered list of state snapshots plus per-step solver
reports.  Serialization writes one CSV per snapshot (columns x, u, v, chi
and, in strong mode, omega, omega_t, chi_t), a manifest of times, and a JSON
run report.  All numeric output is formatted with %.17g and JSON keys are
sorted, so identical inputs reproduce byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretization import Mesh1D, Operators
from .forcing import SampledForcing

__all__ = ["Snapshot", "StepReport", "Trajectory", "write_csv", "write_json"]

SCHEMA_VERSION = 1


def write_csv(path, header, columns) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    body = (row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=True)
        fh.write("\n")


@dataclass
class Snapshot:
    t: float
    u: np.ndarray
    v: np.ndarray
    chi: np.ndarray
    chi_t: np.ndarray
    omega: Optional[np.ndarray] = None
    omega_t: Optional[np.ndarray] = None
    u_modal: Optional[np.ndarray] = None
    v_modal: Optional[np.ndarray] = None


@dataclass
class StepReport:
    step: int
    inner_iterations: int = 0
    objective_decrease: float = 0.0
    kkt_residual: float = 0.0
    active_count: int = 0
    linear_residual: float = 0.0
    newton_iterations: int = 0
    wall_time: float = 0.0   # in-memory only, never serialized

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "inner_iterations": self.inner_iterations,
            "objective_decrease": self.objective_decrease,
            "kkt_residual": self.kkt_residual,
            "active_count": self.active_count,
            "linear_residual": self.linear_residual,
            "newton_iterations": self.newton_iterations,
        }


@dataclass
class Trajectory:
    mode: str
    mesh: Mesh1D
    ops: Operators
    material: object
    potential: object
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    step_reports: list = field(default_factory=list)
    tau: float = 0.0
    forcing_means: Optional[SampledForcing] = None   # weak: fbar_k, gbar_k
    extras: dict = field(default_factory=dict)

    def append(self, snap: Snapshot) -> None:
        self.times.append(snap.t)
        self.snapshots.append(snap)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    def time_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def sample(self, t: float) -> Snapshot:
        """Piecewise-linear interpolation of the snapshot fields at time t."""
        times = self.time_array()
        if t <= times[0]:
            return self.snapshots[0]
        if t >= times[-1]:
            return self.snapshots[-1]
        j = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[j], times[j + 1]
        lam = (t - t0) / (t1 - t0)

        def mix(a, b):
            if a is None or b is None:
                return None
            return (1.0 - lam) * a + lam * b

        s0, s1 = self.snapshots[j], self.snapshots[j + 1]
        return Snapshot(
            t=t, u=mix(s0.u, s1.u), v=mix(s0.v, s1.v), chi=mix(s0.chi, s1.chi),
            chi_t=mix(s0.chi_t, s1.chi_t), omega=mix(s0.omega, s1.omega),
            omega_t=mix(s0.omega_t, s1.omega_t),
            u_modal=mix(s0.u_modal, s1.u_modal),
            v_modal=mix(s0.v_modal, s1.v_modal),
        )

    def restrict_space(self, coarse_mesh: Mesh1D, coarse_ops: Operators) -> "Trajectory":
        """Restrict fields to a coarser aligned mesh (or interpolate)."""
        fine = self.mesh.nodes
        coarse = coarse_mesh.nodes
        stride = (self.mesh.N - 1) // (coarse_mesh.N - 1)
        aligned = (stride * (coarse_mesh.N - 1) == self.mesh.N - 1)

        def down(z):
            if z is None:
                return None
            if aligned:
                return z[::stride].copy()
            return np.interp(coarse, fine, z)

        out = Trajectory(mode=self.mode, mesh=coarse_mesh, ops=coarse_ops,
                         material=self.material, potential=self.potential,
                         tau=self.tau, extras=dict(self.extras))
        for s in self.snapshots:
            out.append(Snapshot(
                t=s.t, u=down(s.u), v=down(s.v), chi=down(s.chi),
                chi_t=down(s.chi_t), omega=down(s.omega), omega_t=down(s.omega_t)))
        return out

    # -- serialization -------------------------------------------------------
    def run_report(self) -> dict:
        """Payload of run_report.json: run metadata and the step reports."""
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "steps": len(self.step_reports),
            "tau": self.tau,
            "mesh": {"N": self.mesh.N, "L": self.mesh.L},
            "step_reports": [r.to_dict() for r in self.step_reports],
        }

    def save(self, outdir: str) -> list:
        os.makedirs(outdir, exist_ok=True)
        written = []
        x = self.mesh.nodes
        for i, s in enumerate(self.snapshots):
            name = f"snap_{i:05d}.csv"
            header = ["x", "u", "v", "chi", "chi_t"]
            cols = [x, s.u, s.v, s.chi, s.chi_t]
            if s.omega is not None:
                header += ["omega", "omega_t"]
                cols += [s.omega, s.omega_t]
            write_csv(os.path.join(outdir, name), header, cols)
            written.append(name)
        write_csv(os.path.join(outdir, "manifest_times.csv"),
                  ["index", "t"],
                  [np.arange(len(self.times)), np.asarray(self.times)])
        written.append("manifest_times.csv")
        write_json(os.path.join(outdir, "run_report.json"), self.run_report())
        written.append("run_report.json")
        return written
