"""Time-discretization scheme for the weak solutions.

Each step advances (chi, u) by

  1. a constrained convex minimization for chi^k: with lumped nodal
     quadrature weights w and the trapezoid elastic load l_i built from
     u^{k-1},

       P(chi) = sum_i w_i |chi_i - chi_i^{k-1}|^2 / (2 tau)
              + 1/2 chi^T S chi
              + sum_i w_i Wbreve(chi_i)
              + sum_i w_i Wcheck'(chi_i^{k-1}) chi_i
              + sum_i a(chi_i) l_i
       minimized over the nodal obstacle set { chi <= chi^{k-1} };

  2. a symmetric positive-definite solve for u^k,

       [M/tau^2 + S_{b(chi^k) V}/tau + S_{a(chi^k) C} + boundary] u^k = rhs,

     with the Robin terms divided by gamma0 and the rhs built from the
     local means of the volume and boundary forcings (separable, O(K + N)),

started from u^{-1} = u0 - tau v0.  The quadratures are matched so that
testing step 1 with chi^{k-1} and step 2 with u^k - u^{k-1} telescopes into
the discrete energy-dissipation inequality exactly (up to the inner-solver
tolerance); the diagnostics module evaluates the same discrete functionals.

Step 1 is solved by the primal-dual active-set method, a semismooth Newton
iteration on the reduced tridiagonal system.  It converges locally, so it is
started from the predictor clip(chi^{k-1} + tau chi_t^{k-1}, lo, chi^{k-1}),
lo the lower end of the convex part's domain: that places a receding damage
front near its new position instead of at its old one.  Accelerated
proximal gradient (FISTA with restart and backtracking) is only the
fallback, for a Newton iteration that stalls, cycles or hits its cap, and
for graphs without Newton data.  Positivity of chi is never imposed: when
the degradation coefficient a is nondecreasing, convex, and vanishes on the
negative axis, the minimizer is automatically nonnegative, and the
truncation consistency check verifies that after the fact.

The reduced Newton systems and the momentum system are tridiagonal and go
straight to LAPACK (?gtsv and ?ptsv).  The energy, dissipation and work of
every step, which the discrete EDI check needs at any output stride, are
evaluated on the buffered snapshots of BLOCK steps at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretization import (
    Operators,
    assemble_operators,
    banded_matvec,
    banded_quadform,
    build_mesh,
    solve_spd_tridiag,
    solve_tridiag,
    weighted_stiffness_banded,
)
from .forcing import BoundaryForcing, Forcing, local_time_means
from .model import MaterialLaw, PotentialSplit, ScenarioConfig
from .regularization import yosida_eval
from .trajectory import Snapshot, StepReport, Trajectory

__all__ = [
    "SimState",
    "DamageSubproblem",
    "DamageSolveError",
    "MomentumSolveError",
    "assemble_damage_subproblem",
    "damage_step",
    "momentum_step",
    "damage_tau_max",
    "run_weak",
    "truncation_consistency_check",
    "nonsmooth_vi_residual",
    "apriori_monitors",
]


class DamageSolveError(RuntimeError):
    pass


class MomentumSolveError(RuntimeError):
    pass


@dataclass
class SimState:
    t: float
    u: np.ndarray
    v: np.ndarray
    chi: np.ndarray
    chi_prev: np.ndarray


# ---------------------------------------------------------------------------
# Damage subproblem
# ---------------------------------------------------------------------------

@dataclass
class DamageSubproblem:
    """Nodal data of the per-step constrained minimization."""

    tau: float
    w: np.ndarray              # lumped quadrature weights
    S: np.ndarray              # banded stiffness
    load: np.ndarray           # trapezoid elastic load l_i >= 0
    drift: np.ndarray          # w_i * Wcheck'(chi^{k-1}_i)
    upper: np.ndarray          # obstacle chi^{k-1}
    chi_prev: np.ndarray
    material: MaterialLaw
    potential: PotentialSplit

    @property
    def graph(self):
        return self.potential.convex_part

    def smooth_value(self, chi) -> float:
        a = self.material.a
        val = float(
            0.5 / self.tau * np.dot(self.w, (chi - self.chi_prev) ** 2)
            + 0.5 * banded_quadform(self.S, chi)
            + np.dot(a(chi), self.load)
            + np.dot(self.drift, chi)
        )
        return val

    def smooth_grad(self, chi) -> np.ndarray:
        a = self.material.a
        return (self.w * (chi - self.chi_prev) / self.tau
                + banded_matvec(self.S, chi)
                + a.d1(chi) * self.load
                + self.drift)

    def breve_sum(self, chi) -> float:
        vals = self.potential.breve_W(chi)
        return float(np.dot(self.w, vals))

    def objective(self, chi) -> float:
        """Full functional P (inf outside the domain of the convex part)."""
        if np.any(chi > self.upper + 1e-14):
            return math.inf
        bs = self.breve_sum(chi)
        if not np.isfinite(bs):
            return math.inf
        return self.smooth_value(chi) + bs

    def prox_project(self, z, eta) -> np.ndarray:
        """prox of eta * (sum w_i Wbreve + obstacle indicator) at z."""
        y = self.graph.prox(eta * self.w, z)
        return np.minimum(y, self.upper)

    def kkt_residual(self, chi, eta) -> float:
        step = self.prox_project(chi - eta * self.smooth_grad(chi), eta)
        return float(np.max(np.abs(chi - step)) / eta)

    def lipschitz_guess(self) -> float:
        h = 2.0 * float(np.min(self.w))
        base = float(np.max(self.w)) / self.tau + 4.0 / h
        a = self.material.a
        if a.d2 is not None:
            curv = np.max(np.abs(a.d2(self.chi_prev)) * self.load
                          / np.maximum(self.w, 1e-300))
            base += float(curv)
        return base


def assemble_damage_subproblem(ops: Operators, material: MaterialLaw,
                               potential: PotentialSplit, u_prev: np.ndarray,
                               chi_prev: np.ndarray, tau: float) -> DamageSubproblem:
    load = ops.elastic_load(u_prev, material.C)
    drift = ops.w * (-potential.ell * chi_prev)
    return DamageSubproblem(
        tau=tau, w=ops.w, S=ops.S, load=load, drift=drift,
        upper=chi_prev.copy(), chi_prev=chi_prev.copy(),
        material=material, potential=potential,
    )


def damage_tau_max(potential: PotentialSplit) -> float:
    """Coercivity threshold tau < 1/(2 c_W^2) with c_W the affine-minorant
    slope of the convex part, estimated at the domain anchor."""
    graph = potential.convex_part
    anchor = graph.anchor
    if graph.minimal_section is not None:
        c = float(np.atleast_1d(graph.minimal_section(anchor))[0])
    else:
        c = float(np.atleast_1d(yosida_eval(graph, 1e-3, anchor))[0])
    if not np.isfinite(c) or abs(c) < 1e-300:
        return math.inf
    return 1.0 / (2.0 * c * c)


def damage_step(sub: DamageSubproblem, tol_inner: float = 1e-10,
                max_polish: int | None = None, hard_cap: int = 20000,
                start: np.ndarray | None = None) -> tuple:
    """Minimize P over the obstacle set; returns (chi, StepReport).

    Newton first, from ``start`` (default chi^{k-1}); FISTA rounds of 200
    iterations (at most ``hard_cap`` in all) run only when the polish fails
    or the graph has neither a derivative nor piecewise-affine data.  The
    reported objective decrease is measured from chi^{k-1} whatever the
    start.  ``max_polish`` defaults to N: a front of active nodes that the
    start misplaces recedes by about one node per side and iteration.
    """
    t_start = time.perf_counter()
    obj0 = sub.objective(sub.chi_prev)
    x = (sub.chi_prev if start is None else start).copy()
    L = sub.lipschitz_guess()
    polishable = (sub.graph.derivative is not None
                  or sub.graph.pw_jumps is not None)
    max_polish = sub.w.size if max_polish is None else max_polish
    fista_iters = newton_iters = 0
    kkt = math.inf
    while kkt > tol_inner:
        if polishable:
            x, its, kkt = _active_set_polish(sub, x, tol_inner, max_polish, L)
            newton_iters += its
            if kkt <= tol_inner:
                break
        if fista_iters >= hard_cap:
            break
        x, kkt, L, its = _fista(sub, x, 200, L, tol_inner)
        fista_iters += its

    if kkt > tol_inner:
        raise DamageSolveError(
            f"damage minimization stalled at KKT residual {kkt:.3e}")

    chi = np.minimum(x, sub.upper)   # tolerance-level feasibility snap
    return chi, StepReport(
        step=-1,
        inner_iterations=fista_iters,
        newton_iterations=newton_iters,
        objective_decrease=obj0 - sub.objective(chi),
        kkt_residual=kkt,
        active_count=int(np.sum(sub.upper - chi <= 1e-12)),
        wall_time=time.perf_counter() - t_start,
    )


def _fista(sub: DamageSubproblem, x: np.ndarray, iters: int, L: float,
           tol: float) -> tuple:
    """FISTA with backtracking and adaptive restart; returns (x, kkt, L, its)."""
    y = x.copy()
    t_acc = 1.0
    for it in range(1, iters + 1):
        gy = sub.smooth_grad(y)
        fy = sub.smooth_value(y)
        for _ in range(60):
            z = sub.prox_project(y - gy / L, 1.0 / L)
            dz = z - y
            quad = fy + float(np.dot(gy, dz)) + 0.5 * L * float(np.dot(dz, dz))
            if sub.smooth_value(z) <= quad + 1e-15 * (1.0 + abs(quad)):
                break
            L *= 2.0
        if float(np.dot(gy, z - x)) > 0.0:   # adaptive restart
            t_acc = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = z + ((t_acc - 1.0) / t_new) * (z - x)
        x, t_acc = z, t_new
        kkt = sub.kkt_residual(x, 1.0 / L)
        if kkt <= tol:
            break
    return x, kkt, L, it


def _active_set_polish(sub: DamageSubproblem, x: np.ndarray, tol: float,
                       max_iter: int, scale: float) -> tuple:
    """Primal-dual active set iteration on the reduced tridiagonal system;
    returns (chi, Newton steps, KKT residual).  Stops on a stalled step or
    when an active set other than the last one recurs (cycling)."""
    graph = sub.graph
    lo, hi = graph.domain if graph.pw_jumps is not None else (-np.inf, np.inf)
    lb = np.full(x.size, lo)
    ub = np.minimum(sub.upper, hi)
    has_smooth = graph.derivative is not None

    def residual(c):
        R = sub.smooth_grad(c)
        return R + sub.w * graph.minimal_section(c) if has_smooth else R

    chi = np.clip(x, lb, ub)
    kkt = math.inf
    seen, last = set(), None
    for it in range(1, max_iter + 1):
        R = residual(chi)
        act_up = (-R + scale * (chi - ub)) > 0.0
        act_lo = (R + scale * (lb - chi)) > 0.0
        key = np.packbits(act_up).tobytes() + np.packbits(act_lo).tobytes()
        if key != last and key in seen:
            return chi, it - 1, kkt
        seen.add(key)
        last = key
        inactive = ~(act_up | act_lo)

        chi_new = chi.copy()
        chi_new[act_up] = ub[act_up]
        chi_new[act_lo] = lb[act_lo]
        if np.any(inactive):
            J = sub.S.copy()
            J[1] += sub.w / sub.tau
            if has_smooth:
                J[1] += sub.w * graph.derivative(chi_new)
            if sub.material.a.d2 is not None:
                J[1] += sub.material.a.d2(chi_new) * sub.load
            idx = np.flatnonzero(inactive)
            # rows and columns idx of J: neighbours in idx that are not
            # neighbours on the mesh do not couple
            off = np.where(np.diff(idx) == 1, J[0, idx[1:]], 0.0)
            # residual at the snapped point, coupling to active values included
            Rs = residual(chi_new)
            d = solve_tridiag(off, J[1, idx], off, -Rs[idx])
            chi_new[idx] += d
            chi_new[idx] = np.clip(chi_new[idx], lb[idx], ub[idx])
        stalled = (np.max(np.abs(chi_new - chi))
                   <= 1e-16 * (1.0 + np.max(np.abs(chi))))
        chi = chi_new
        kkt = sub.kkt_residual(chi, 1.0 / scale)
        if stalled or kkt <= tol:
            break
    return chi, it, kkt


# ---------------------------------------------------------------------------
# Momentum step
# ---------------------------------------------------------------------------

def momentum_step(ops: Operators, material: MaterialLaw, chi: np.ndarray,
                  u_prev: np.ndarray, u_prev2: np.ndarray, tau: float,
                  fbar: np.ndarray, gbar: np.ndarray,
                  tol_lin: float = 1e-12) -> tuple:
    """One implicit momentum solve; returns (u, relative residual)."""
    mesh = ops.mesh
    bv = material.b(chi)
    if np.min(bv) < material.b_floor - 1e-12:
        raise MomentumSolveError("viscosity floor violated; system may degenerate")
    Sb = weighted_stiffness_banded(mesh, bv, scale=material.V)
    Sa = weighted_stiffness_banded(mesh, material.a(chi), scale=material.C)

    g1, g2 = material.gamma1_eff, material.gamma2_eff
    A = ops.M / tau**2 + Sb / tau + Sa
    A[1, 0] += g1 / tau + g2
    A[1, -1] += g1 / tau + g2

    rhs = banded_matvec(ops.M, 2.0 * u_prev - u_prev2) / tau**2
    rhs += banded_matvec(Sb, u_prev) / tau
    rhs[0] += g1 / tau * u_prev[0]
    rhs[-1] += g1 / tau * u_prev[-1]
    rhs += banded_matvec(ops.M, np.asarray(fbar, dtype=float))
    rhs[0] += gbar[0] / material.gamma0
    rhs[-1] += gbar[1] / material.gamma0

    try:
        u = solve_spd_tridiag(A, rhs)
    except np.linalg.LinAlgError as exc:   # pragma: no cover - defensive
        raise MomentumSolveError(str(exc)) from exc
    res = float(np.max(np.abs(banded_matvec(A, u) - rhs))
                / (np.max(np.abs(rhs)) + 1.0))
    if res > tol_lin:
        raise MomentumSolveError(f"momentum solve residual {res:.3e} > {tol_lin:.3e}")
    return u, res


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_weak(config: ScenarioConfig) -> Trajectory:
    """Run the full time-discrete scheme; aborts with the partial trajectory
    attached to the raised error on step failure.

    Snapshots are retained every ``output_stride`` steps (first and last
    always).  The per-step energy/dissipation/work scalars feeding the
    discrete EDI check are accumulated at every step regardless of the
    stride: each step's snapshot is buffered, and the buffer is evaluated
    stacked (``diagnostics.step_series``) every BLOCK steps and at the last
    one, so long runs hold O(BLOCK N) beyond the retained snapshots.
    """
    from .diagnostics import BLOCK, step_series

    mesh = build_mesh(config.N, config.L)
    ops = assemble_operators(mesh)
    config.validate(mesh.nodes)
    tau = config.tau

    tmax = damage_tau_max(config.potential)
    if tau >= tmax:
        raise ValueError(f"tau = {tau:g} exceeds the coercivity bound {tmax:g}")

    u0, v0, chi0 = config.initial_fields(mesh.nodes)
    means = local_time_means(config.forcing or Forcing.zero(),
                             config.boundary or BoundaryForcing.zero(),
                             config.K, tau, mesh.nodes)
    traj = Trajectory(mode="weak", mesh=mesh, ops=ops,
                      material=config.material, potential=config.potential,
                      tau=tau, forcing_means=means, extras={"config": config})
    snap0 = Snapshot(t=0.0, u=u0.copy(), v=v0.copy(), chi=chi0.copy(),
                     chi_t=np.zeros_like(chi0))
    traj.append(snap0)

    stride = max(1, int(config.output_stride))
    E_series, D_series, work_series = np.zeros((3, config.K + 1))
    mono_ok = True
    pending, k0 = [snap0], 0       # snapshots of steps k0, k0 + 1, ...

    state = SimState(t=0.0, u=u0.copy(), v=v0.copy(), chi=chi0.copy(),
                     chi_prev=chi0.copy())
    u_prev2 = u0 - tau * v0
    lo = config.potential.convex_part.domain[0]
    for k in range(1, config.K + 1):
        sub = assemble_damage_subproblem(ops, config.material, config.potential,
                                         state.u, state.chi, tau)
        # Newton start chi^{k-1} + tau chi_t^{k-1}, clipped to the obstacle set
        predictor = np.clip(2.0 * state.chi - state.chi_prev, lo, state.chi)
        try:
            chi_k, report = damage_step(sub, tol_inner=config.tolerances.inner,
                                        start=predictor)
            u_k, lin_res = momentum_step(ops, config.material, chi_k, state.u,
                                         u_prev2, tau, *means.rows(k - 1),
                                         tol_lin=config.tolerances.lin)
        except (DamageSolveError, MomentumSolveError) as exc:
            exc.partial_trajectory = traj
            exc.failed_step = k
            raise
        report.step = k
        report.linear_residual = lin_res
        traj.step_reports.append(report)
        u_prev2 = state.u
        state = SimState(t=k * tau, u=u_k, v=(u_k - state.u) / tau,
                         chi=chi_k, chi_prev=state.chi)
        snap = Snapshot(t=state.t, u=state.u, v=state.v, chi=state.chi,
                        chi_t=(state.chi - state.chi_prev) / tau)
        pending.append(snap)
        if len(pending) == BLOCK or k == config.K:
            rows = slice(k0, k + 1)
            E_series[rows], D_series[rows], work_series[rows], uni = \
                step_series(pending, k0, config.material, config.potential,
                            ops, tau, means, config.tolerances.mono)
            mono_ok &= uni
            pending, k0 = [], k + 1
        if k % stride == 0 or k == config.K:
            traj.append(snap)
    traj.extras["edi_series"] = {
        "times": tau * np.arange(config.K + 1),
        "E": E_series, "D": D_series, "work": np.cumsum(work_series),
        "unidirectional": mono_ok,
    }
    return traj


# ---------------------------------------------------------------------------
# Post-run checks
# ---------------------------------------------------------------------------

@dataclass
class TruncationReport:
    skipped: bool
    warning: str = ""
    worst_negative: float = 0.0
    worst_objective_gap: float = 0.0
    passed: bool = True


def truncation_consistency_check(traj: Trajectory, tol: float = 1e-10,
                                 hyp_grid=None) -> TruncationReport:
    """Verify chi^k = max(chi^k, 0) and P((chi^k)^+) <= P(chi^k) stepwise.

    Only meaningful when a is nondecreasing, vanishing on the negative axis,
    and convex; otherwise the check is skipped with a warning.
    """
    from .model import validate_material

    report = validate_material(traj.material, hyp_grid)
    if not report.degradation_shape_ok():
        return TruncationReport(
            skipped=True, passed=True,
            warning="degradation coefficient lacks the monotone-convex-"
                    "vanishing shape; positivity of chi is not asserted")

    worst_neg = 0.0
    worst_gap = 0.0
    tau = traj.tau
    for k in range(1, len(traj)):
        prev = traj.snapshots[k - 1]
        cur = traj.snapshots[k]
        sub = assemble_damage_subproblem(traj.ops, traj.material, traj.potential,
                                         prev.u, prev.chi, tau)
        worst_neg = min(worst_neg, float(np.min(cur.chi)))
        plus = np.maximum(cur.chi, 0.0)
        gap = sub.objective(plus) - sub.objective(cur.chi)
        worst_gap = max(worst_gap, gap)
    passed = worst_neg >= -tol and worst_gap <= tol
    return TruncationReport(skipped=False, worst_negative=worst_neg,
                            worst_objective_gap=worst_gap, passed=passed)


def nonsmooth_vi_residual(traj: Trajectory, test_bank: Sequence[np.ndarray]):
    """Minimum over the bank of the discrete one-sided inequality LHS.

    For each step k and each nonpositive nodal test function phi, evaluates
    the scheme-consistent left-hand side

      sum_i w_i chi_t_i phi_i + chi^T S phi + sum_i a'(chi_i) l_i phi_i
      + sum_i w_i [Wbreve(chi_i + phi_i) - Wbreve(chi_i)]
      + sum_i w_i Wcheck'(chi^{k-1}_i) phi_i

    (load l from u^{k-1}, concave drift at chi^{k-1}).  Entries where
    chi + phi leaves the domain of Wbreve are excluded.  Returns the
    (K,)-array of per-step minima over the bank.
    """
    bank = [np.asarray(phi, dtype=float) for phi in test_bank]
    for phi in bank:
        if np.any(phi > 0.0):
            raise ValueError("test functions must be nonpositive")
    tau = traj.tau
    ops = traj.ops
    out = np.full(len(traj) - 1, np.nan)
    for k in range(1, len(traj)):
        prev = traj.snapshots[k - 1]
        cur = traj.snapshots[k]
        sub = assemble_damage_subproblem(ops, traj.material, traj.potential,
                                         prev.u, prev.chi, tau)
        best = math.inf
        for phi in bank:
            b_new = sub.breve_sum(cur.chi + phi)
            if not np.isfinite(b_new):
                continue
            lhs = (np.dot(ops.w * cur.chi_t, phi)
                   + banded_quadform(ops.S, cur.chi, phi)
                   + np.dot(traj.material.a.d1(cur.chi) * sub.load, phi)
                   + b_new - sub.breve_sum(cur.chi)
                   + np.dot(sub.drift, phi))
            best = min(best, float(lhs))
        out[k - 1] = best
    return out


def apriori_monitors(traj: Trajectory) -> dict:
    """Discrete analogues of the a-priori bounded norms (reported, not asserted)."""
    ops = traj.ops
    tau = traj.tau
    sup_u_h1 = sup_v_l2 = sup_chi_h1 = sup_chi_inf = 0.0
    int_chit = int_v_h1 = 0.0
    for k, s in enumerate(traj.snapshots):
        u_h1 = math.sqrt(ops.l2_norm(s.u) ** 2 + ops.h1_semi(s.u) ** 2)
        chi_h1 = math.sqrt(ops.l2_norm(s.chi) ** 2 + ops.h1_semi(s.chi) ** 2)
        sup_u_h1 = max(sup_u_h1, u_h1)
        sup_v_l2 = max(sup_v_l2, ops.l2_norm(s.v))
        sup_chi_h1 = max(sup_chi_h1, chi_h1)
        sup_chi_inf = max(sup_chi_inf, float(np.max(np.abs(s.chi))))
        if k >= 1:
            int_chit += tau * ops.l2_norm_lumped(s.chi_t) ** 2
            int_v_h1 += tau * (ops.l2_norm(s.v) ** 2 + ops.h1_semi(s.v) ** 2)
    return {
        "sup_u_H1": sup_u_h1,
        "sup_v_L2": sup_v_l2,
        "sup_chi_H1": sup_chi_h1,
        "sup_chi_Linf": sup_chi_inf,
        "int_chi_t_L2_sq": int_chit,
        "int_v_H1_sq": int_v_h1,
    }
