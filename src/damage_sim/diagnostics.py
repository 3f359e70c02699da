"""Energy, dissipation, and relative-energy diagnostics on trajectories.

All functionals are evaluated with the same discrete quadratures the
steppers use, so the inequality checks close up to solver tolerances:

  E(u, chi, v)   = 1/2 v^T M v + sum_i a(chi_i) l_i(u)
                 + 1/2 chi^T S chi + sum_i w_i W(chi_i)
                 + gamma2/(2 gamma0) (u(0)^2 + u(L)^2)
  D(chi, v, chi_t) = sum_e (h/2)(b_i + b_{i+1}) V |eps(v)|_e^2
                 + sum_i w_i chi_t_i^2   [+ indicator flag]
                 + gamma1/gamma0 (v(0)^2 + v(L)^2)

with l_i(u) the trapezoid elastic load (so sum_i a_i l_i = 1/2 u^T S_a u
exactly).  The discrete energy-dissipation check reproduces the telescoped
step inequality; the continuous-time checks integrate by the trapezoid rule
on output times.  Both read the snapshots, stacked BLOCK at a time into
(rows, N) arrays on which one evaluator forms E, D, the unidirectionality
flag and the work of the forcings (rows of a ``SampledForcing``) row by
row; ``energy`` and ``dissipation`` evaluate the same formulas on a single
snapshot.

The relative energy R, relative dissipation W, and the Gronwall weight K
follow the weak-strong uniqueness machinery; the indicator contributions to
W are hard-zeroed after verifying unidirectionality (they vanish along any
feasible pair), and infeasibility is flagged rather than adding infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .discretization import Operators, banded_matvec, banded_quadform
from .forcing import BoundaryForcing, Forcing, SampledForcing, point_values
from .model import MaterialLaw, PotentialSplit
from .trajectory import Snapshot, Trajectory

__all__ = [
    "energy",
    "DissipationValue",
    "dissipation",
    "EnergyReport",
    "discrete_edi_check",
    "uedi_check",
    "one_sided_vi_residual",
    "strong_energy_balance_residual",
    "relative_energy",
    "relative_dissipation",
    "kappa",
    "RelativeReport",
    "rei_check",
    "calibrate_c_rei",
]


# ---------------------------------------------------------------------------
# Pointwise functionals
# ---------------------------------------------------------------------------

# Snapshots per stacked evaluation: the accounting of a run works on blocks
# of at most BLOCK snapshots, so its memory stays O(BLOCK N) for any length.
BLOCK = 64


def _rowdot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _energy_rows(U, V, X, wvals, material, ops):
    """E of each row of the stacked fields (..., N), wvals the potential at
    X; a single field gives a scalar."""
    if not np.all(np.isfinite(wvals)):
        raise ValueError("chi leaves the domain of the potential")
    E = (0.5 * _rowdot(V, banded_matvec(ops.M, V))
         + _rowdot(material.a(X), ops.elastic_load(U, material.C))
         + 0.5 * _rowdot(X, banded_matvec(ops.S, X))
         + _rowdot(wvals, ops.w))
    g2 = material.gamma2_eff
    if g2 > 0.0:
        E += 0.5 * g2 * (U[..., 0] ** 2 + U[..., -1] ** 2)
    return E


def _dissipation_rows(V, X, Xt, material, ops, tol_mono):
    """(D, unidirectional) of each row of the stacked fields (..., N)."""
    be = ops.element_mean(material.b(X))
    D = (np.sum(be * material.V * ops.strain(V) ** 2, axis=-1) * ops.mesh.h
         + _rowdot(Xt ** 2, ops.w))
    g1 = material.gamma1_eff
    if g1 > 0.0:
        D += g1 * (V[..., 0] ** 2 + V[..., -1] ** 2)
    return D, np.max(Xt, axis=-1) <= tol_mono


def _accounting(snaps, material, potential, ops, tol_mono, power):
    """E, D, the unidirectionality flag and power(rows, V) of each snapshot,
    evaluated on the stacked fields of at most BLOCK snapshots at a time
    (V the stacked velocities of the snapshots ``rows``)."""
    n = len(snaps)
    E, D, P, uni = np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool)
    for j in range(0, n, BLOCK):
        rows = slice(j, min(j + BLOCK, n))
        U, V, X, Xt = (np.array([getattr(s, f) for s in snaps[rows]])
                       for f in ("u", "v", "chi", "chi_t"))
        E[rows] = _energy_rows(U, V, X, potential.W(X), material, ops)
        D[rows], uni[rows] = _dissipation_rows(V, X, Xt, material, ops,
                                               tol_mono)
        P[rows] = power(rows, V)
    return E, D, P, uni


def _power(ops, material, forcing: SampledForcing, samples, V):
    """Power M f . v + (g(0) v(0) + g(L) v(L)) / gamma0 of the forcing rows
    ``samples`` against the velocities V, row by row."""
    F, G = forcing.rows(samples)
    return (_rowdot(banded_matvec(ops.M, F), V)
            + (G[:, 0] * V[:, 0] + G[:, 1] * V[:, -1]) / material.gamma0)


def step_series(snaps, k0, material, potential, ops, tau,
                means: SampledForcing, tol_mono):
    """E, D and the step work tau P(fbar_k, gbar_k; v^k) of the snapshots of
    steps k0, k0 + 1, ..., and whether every step is unidirectional.  Step
    0 has no dissipation and does no work."""
    def step_work(rows, V):
        prev = np.arange(k0 + rows.start, k0 + rows.stop) - 1
        return tau * _power(ops, material, means, prev, V)

    E, D, work, uni = _accounting(snaps, material, potential, ops, tol_mono,
                                  step_work)
    if k0 == 0:
        D[0] = work[0] = 0.0
        uni[0] = True
    return E, D, work, bool(np.all(uni))


def energy(snap: Snapshot, material: MaterialLaw, potential: PotentialSplit,
           ops: Operators) -> float:
    """Discrete stored energy of one snapshot."""
    return float(_energy_rows(snap.u, snap.v, snap.chi,
                              potential.W(snap.chi), material, ops))


@dataclass(frozen=True)
class DissipationValue:
    value: float
    unidirectional: bool       # False means the indicator term is +infinity

    def __float__(self):
        return self.value


def dissipation(snap: Snapshot, material: MaterialLaw, ops: Operators,
                tol_mono: float = 1e-10) -> DissipationValue:
    """Instantaneous dissipation; the indicator of {chi_t <= 0} is reported
    as a feasibility flag instead of an infinite value."""
    D, uni = _dissipation_rows(snap.v, snap.chi, snap.chi_t, material, ops,
                               tol_mono)
    return DissipationValue(value=float(D), unidirectional=bool(uni))


# ---------------------------------------------------------------------------
# Energy-dissipation inequality checks
# ---------------------------------------------------------------------------

@dataclass
class EnergyReport:
    times: np.ndarray
    E: np.ndarray
    D_inst: np.ndarray
    D_cum: np.ndarray
    work_cum: np.ndarray
    slack: np.ndarray
    unidirectional: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.unidirectional and bool(np.min(self.slack) >= -self.tol)

    @property
    def worst_slack(self) -> float:
        return float(np.min(self.slack))


def discrete_edi_check(traj: Trajectory, tol: Optional[float] = None) -> EnergyReport:
    """Slack of the telescoped step inequality E_k + tau sum D_j <= E_0 + work.

    Trajectories with a snapshot at every step are checked from their
    snapshots and the run's forcing means (``step_series``, BLOCK snapshots
    at a time); strided ones use the per-step series the stepper
    accumulated (every step, regardless of the snapshot stride).  The
    default tolerance is (inner tolerance) x (step count), the only
    admissible source of negative slack.
    """
    if traj.mode != "weak":
        raise ValueError("discrete EDI applies to weak-mode trajectories")
    config = traj.extras.get("config")
    tau = traj.tau

    series = traj.extras.get("edi_series")
    if not np.allclose(np.diff(traj.time_array()), tau):
        # strided trajectory: fall back to the series accumulated in-run
        if series is None:
            raise ValueError("trajectory carries neither full-resolution "
                             "snapshots nor the accumulated EDI series")
        times, E, D, work = (np.asarray(series[key])
                             for key in ("times", "E", "D", "work"))
        uni = bool(series["unidirectional"])
    else:
        times = traj.time_array()
        E, D, work, uni = step_series(
            traj.snapshots, 0, traj.material, traj.potential, traj.ops, tau,
            traj.forcing_means, _mono_tol(traj))
        work = np.cumsum(work)

    if tol is None:
        inner = config.tolerances.inner if config is not None else 1e-10
        tol = inner * max(1, times.size - 1)
    Dcum = np.concatenate([[0.0], np.cumsum(tau * D[1:])])
    slack = (E[0] + work) - (E + Dcum)
    return EnergyReport(times=times, E=E, D_inst=D, D_cum=Dcum, work_cum=work,
                        slack=slack, unidirectional=uni, tol=tol)


def uedi_check(traj: Trajectory, tol: Optional[float] = None) -> EnergyReport:
    """Continuous-time upper energy-dissipation inequality on output times.

    Dissipation and external work are integrated by the trapezoid rule, with
    the true forcing values (not their local means); the tolerance budget
    therefore scales with the output spacing squared plus O(tau) from the
    mean-vs-pointwise forcing gap.  The snapshots are evaluated BLOCK at a
    time, against the forcings sampled at the output times.
    """
    config = traj.extras.get("config")
    forcing = (config.forcing if config is not None else None) or Forcing.zero()
    boundary = (config.boundary if config is not None else None) or BoundaryForcing.zero()
    ops, mat = traj.ops, traj.material
    times = traj.time_array()
    n = len(traj)
    sampled = point_values(forcing, boundary, times, traj.mesh.nodes)
    E, D, workrate, uni = _accounting(
        traj.snapshots, mat, traj.potential, ops, _mono_tol(traj),
        lambda rows, V: _power(ops, mat, sampled, rows, V))
    Dcum = _cumtrapz(D, times)
    Wcum = _cumtrapz(workrate, times)
    if tol is None:
        dt = float(np.max(np.diff(times))) if n > 1 else 0.0
        scale = float(np.max(np.abs(E))) + float(np.max(np.abs(Wcum))) + 1.0
        tol = scale * (dt + dt * dt) * 10.0 + 1e-8
    slack = (E[0] + Wcum) - (E + Dcum)
    return EnergyReport(times=times, E=E, D_inst=D, D_cum=Dcum, work_cum=Wcum,
                        slack=slack, unidirectional=bool(np.all(uni)), tol=tol)


def _cumtrapz(y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    if y.size > 1:
        out[1:] = np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]))
    return out


def _mono_tol(traj: Trajectory) -> float:
    """Unidirectionality tolerance: solver tolerance for weak trajectories,
    O(delta) for delta-regularized ones (the regularized indicator only
    enforces chi_t <= 0 in the vanishing-delta limit)."""
    config = traj.extras.get("config")
    base = config.tolerances.mono if config is not None else 1e-10
    params = traj.extras.get("params")
    if params is not None:
        base = max(base, params.delta)
    return base


# ---------------------------------------------------------------------------
# One-sided variational inequality (smooth potential)
# ---------------------------------------------------------------------------

def one_sided_vi_residual(snap: Snapshot, test_bank: Sequence[np.ndarray],
                          material: MaterialLaw, potential: PotentialSplit,
                          ops: Operators,
                          prev: Optional[Snapshot] = None) -> float:
    """Minimum over the bank of the one-sided inequality left-hand side.

    With ``prev`` given, the elastic load and the concave drift are taken at
    the previous state (the form the scheme satisfies to solver tolerance);
    otherwise everything is evaluated at the current state, which carries an
    O(tau) consistency drift.
    """
    if not potential.smooth:
        raise ValueError("one-sided VI in derivative form needs a smooth potential")
    load_state = prev if prev is not None else snap
    load = ops.elastic_load(load_state.u, material.C)
    drift_chi = (prev.chi if prev is not None else snap.chi)
    best = math.inf
    for psi in test_bank:
        psi = np.asarray(psi, dtype=float)
        if np.any(psi > 0.0):
            raise ValueError("test functions must be nonpositive")
        lhs = (float(np.dot(ops.w * snap.chi_t, psi))
               + banded_quadform(ops.S, snap.chi, psi)
               + float(np.dot(material.a.d1(snap.chi) * load, psi))
               + float(np.dot(ops.w * potential.breve_dW(snap.chi), psi))
               + float(np.dot(ops.w * potential.concave_dW(drift_chi), psi)))
        best = min(best, lhs)
    return best


# ---------------------------------------------------------------------------
# Strong-mode regularized energy balance
# ---------------------------------------------------------------------------

def strong_energy_balance_residual(traj: Trajectory) -> np.ndarray:
    """|regularized energy identity residual| per output time.

    The identity tested is the one the regularized system satisfies exactly
    in time-continuous form:

      E_d(t) - E_d(0) + int_0^t D_d + V(t) - V(0) + R_nu(t) - Work(t) = 0,

    with V the nu-weighted rate energy and R_nu the third-derivative
    remainder.  The regularized potential in E_d is evaluated at each
    snapshot's chi, point by point (``potential_on_grid``).  Time integrals
    use the trapezoid rule on output times, so the residual decays at the
    stepping order O(tau^2).
    """
    if traj.mode != "strong":
        raise ValueError("strong balance applies to strong-mode trajectories")
    ops, mat, pot = traj.ops, traj.material, traj.potential
    reg_W = traj.extras["reg_W"]
    reg_I = traj.extras["reg_I"]
    params = traj.extras["params"]
    config = traj.extras.get("config")
    forcing = (config.forcing if config is not None else None) or Forcing.zero()
    nu = params.nu

    times = traj.time_array()
    n = len(traj)
    E = np.zeros(n)
    D = np.zeros(n)
    V = np.zeros(n)
    Rrate = np.zeros(n)
    workrate = np.zeros(n)
    for k, s in enumerate(traj.snapshots):
        # strong mode has no Robin terms (gamma1 = gamma2 = 0)
        E[k] = _energy_rows(s.u, s.v, s.chi, reg_W.potential_on_grid(s.chi)
                            - 0.5 * pot.ell * s.chi**2, mat, ops)
        D[k] = (_dissipation_rows(s.v, s.chi, s.chi_t, mat, ops, 0.0)[0]
                + float(np.dot(ops.w, reg_I.value(s.chi_t) * s.chi_t)))
        _, w1, w2 = reg_W.eval_all(s.chi)
        V[k] = 0.5 * nu * (float(np.dot(ops.w, s.chi_t**2))
                           + banded_quadform(ops.S, s.chi_t)
                           + float(np.dot(ops.w, w1 * s.chi_t**2)))
        Rrate[k] = 0.5 * nu * float(np.dot(ops.w, w2 * s.chi_t**3))
        fv = forcing.at(times[k], traj.mesh.nodes)
        workrate[k] = float(np.dot(banded_matvec(ops.M, fv), s.v))
    Dcum = _cumtrapz(D, times)
    Rcum = _cumtrapz(Rrate, times)
    Wcum = _cumtrapz(workrate, times)
    return np.abs(E - E[0] + Dcum + V - V[0] + Rcum - Wcum)


# ---------------------------------------------------------------------------
# Relative energy machinery
# ---------------------------------------------------------------------------

def relative_energy(snap: Snapshot, ref: Snapshot, material: MaterialLaw,
                    potential: PotentialSplit, ops: Operators,
                    return_parts: bool = False):
    """Relative energy R(state | reference); each summand is nonnegative for
    an ell-convex potential."""
    if not potential.smooth:
        raise ValueError("relative energy needs a twice-differentiable potential")
    dchi = snap.chi - ref.chi
    wv = potential.W(snap.chi)
    wr = potential.W(ref.chi)
    if not (np.all(np.isfinite(wv)) and np.all(np.isfinite(wr))):
        raise ValueError("chi leaves the domain of the potential")
    bracket = wv - wr - potential.dW(ref.chi) * dchi \
        + 0.5 * potential.ell * dchi**2
    parts = {
        "grad": 0.5 * banded_quadform(ops.S, dchi),
        "potential": float(np.dot(ops.w, bracket)),
        "elastic": float(np.dot(material.a(snap.chi),
                                ops.elastic_load(snap.u - ref.u, material.C))),
        "kinetic": 0.5 * banded_quadform(ops.M, snap.v - ref.v),
    }
    total = sum(parts.values())
    if return_parts:
        return total, parts
    return total


def relative_dissipation(snap: Snapshot, ref: Snapshot, material: MaterialLaw,
                         ops: Operators, tol_mono: float = 1e-10):
    """Relative dissipation W(state | reference) with hard-zeroed indicator
    terms; returns (value, feasible)."""
    dv = snap.v - ref.v
    eps = ops.strain(dv)
    be = ops.element_mean(material.b(snap.chi))
    val = (float(np.dot(ops.w, (snap.chi_t - ref.chi_t) ** 2))
           + float(np.sum(be * material.V * eps**2) * ops.mesh.h))
    feasible = bool(max(np.max(snap.chi_t), np.max(ref.chi_t)) <= tol_mono)
    return val, feasible


def kappa(ref: Snapshot, material: MaterialLaw, potential: PotentialSplit,
          ops: Operators, c_rei: float = 1.0) -> float:
    """Gronwall weight K of the reference state."""
    h = ops.mesh.h
    eps_u = ops.strain(ref.u)
    eps_v = ops.strain(ref.v)

    def strain_lp(e, p):
        return float(np.sum(h * np.abs(e) ** p) ** (1.0 / p))

    return c_rei * (
        ops.lp_norm_lumped(ref.chi_t, 1.5)
        + strain_lp(eps_v, 3) ** 2
        + potential.ell ** 2
        + float(np.max(np.abs(eps_u), initial=0.0)) ** 2
        + strain_lp(eps_u, 3) ** 2
        + strain_lp(eps_u, 6) ** 4
    )


@dataclass
class RelativeReport:
    times: np.ndarray
    R: np.ndarray
    W: np.ndarray
    K: np.ndarray
    coupling: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    sup_R: float
    sign_ok: bool
    feasible: bool
    c_rei: float
    tol: float

    @property
    def passed(self) -> bool:
        """Structural checks only.  The slack of a finite-resolution pair
        carries the discretization-gap dissipation (it vanishes only under
        refinement, cf. the sup_R ladder), so it is reported, not gated."""
        return self.sign_ok and self.feasible

    def envelope_ok(self, headroom: float = 0.5) -> bool:
        """Gronwall envelope test R(t) <= R(0) exp(int K) (1 + headroom)."""
        return bool(np.all(self.R <= self.rhs * (1.0 + headroom) + self.tol))


def _align(traj: Trajectory, ref: Trajectory) -> list:
    """Reference snapshots restricted to the coarse mesh at the coarse times."""
    if traj.time_array()[-1] > ref.time_array()[-1] + 0.5 * traj.tau:
        raise ValueError("reference trajectory does not cover the compared "
                         "time window")
    ref_c = ref.restrict_space(traj.mesh, traj.ops)
    return [ref_c.sample(t) for t in traj.time_array()]


def rei_check(traj: Trajectory, ref_traj: Trajectory, c_rei: float = 1.0,
              tol: float = 1e-9) -> RelativeReport:
    """Per-time slack of the relative energy inequality

      R(t) + int_0^t [W - coupling] e^{int_s^t K} ds <= R(0) e^{int_0^t K}.

    The reference trajectory plays the strong-solution role (a strong-mode
    run or a fine resolved run standing in for it); it is restricted to the
    coarse mesh and sampled at the coarse output times.  The sign structure
    of the coupling term (a' >= 0, ref chi_t <= 0) is verified.
    """
    ops, mat, pot = traj.ops, traj.material, traj.potential
    times = traj.time_array()
    refs = _align(traj, ref_traj)
    n = times.size
    R = np.zeros(n)
    W = np.zeros(n)
    Kv = np.zeros(n)
    cpl = np.zeros(n)
    feasible = True
    sign_ok = True
    mono_s = _mono_tol(traj)
    mono_r = _mono_tol(ref_traj)
    for k, (s, r) in enumerate(zip(traj.snapshots, refs)):
        R[k] = relative_energy(s, r, mat, pot, ops)
        wv, _ = relative_dissipation(s, r, mat, ops)
        W[k] = wv
        feasible &= bool(np.max(s.chi_t) <= mono_s)
        feasible &= bool(np.max(r.chi_t) <= mono_r)
        Kv[k] = kappa(r, mat, pot, ops, c_rei)
        du_load = ops.elastic_load(s.u - r.u, mat.C)
        cpl[k] = 2.0 * float(np.dot(mat.a.d1(s.chi) * r.chi_t, du_load))
        sign_ok &= bool(cpl[k] <= tol)
    cumK = _cumtrapz(Kv, times)
    rhs = R[0] * np.exp(cumK)
    # trapezoid rule for int_0^{t_k} g(s) e^{int_s^{t_k} K} ds, g = W - coupling;
    # the weights factor, so each integral grows from the previous one
    g = W - cpl
    integral = np.zeros(n)
    for k in range(1, n):
        decay = math.exp(cumK[k] - cumK[k - 1])
        half_dt = 0.5 * (times[k] - times[k - 1])
        integral[k] = decay * (integral[k - 1] + half_dt * g[k - 1]) + half_dt * g[k]
    slack = rhs - R - integral
    return RelativeReport(times=times, R=R, W=W, K=Kv, coupling=cpl, rhs=rhs,
                          slack=slack, sup_R=float(np.max(R)),
                          sign_ok=sign_ok, feasible=feasible, c_rei=c_rei,
                          tol=tol)


def calibrate_c_rei(traj: Trajectory, ref_traj: Trajectory,
                    form: str = "envelope", c_lo: float = 1e-8,
                    c_hi: float = 1e8, iters: int = 60) -> float:
    """Smallest C_REI making the envelope of the relative energy inequality,
    R(t) <= R(0) exp(C int K_hat), hold on a trusted pair; the test is
    monotone in C.  ``form`` must be "envelope", the only form whose
    feasibility depends on C."""
    if form != "envelope":
        raise ValueError(f"unknown calibration form {form!r}")
    ops, mat, pot = traj.ops, traj.material, traj.potential
    times = traj.time_array()
    refs = _align(traj, ref_traj)
    R = np.array([relative_energy(s, r, mat, pot, ops)
                  for s, r in zip(traj.snapshots, refs)])
    Khat = np.array([kappa(r, mat, pot, ops, 1.0) for r in refs])
    cumK = _cumtrapz(Khat, times)
    if R[0] <= 0.0:
        raise ValueError("calibration needs R(0) > 0 (perturbed initial data)")

    def feasible(c):
        return bool(np.all(R <= R[0] * np.exp(c * cumK) * (1.0 + 1e-12)))

    if feasible(c_lo):
        return c_lo
    if not feasible(c_hi):
        raise ValueError("relative energy inequality infeasible for any C_REI")
    lo, hi = c_lo, c_hi
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
