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
iteration on the reduced tridiagonal system, and by nothing else.  It
converges locally, so it is started from the predictor
clip(chi^{k-1} + tau chi_t^{k-1}, lo, chi^{k-1}), lo the lower end of the
convex part's domain: that places a receding damage front near its new
position instead of at its old one.  Its KKT test is the natural residual
of the bound-constrained system it solves, whose bounds are lo, on which a
node may rest, and the obstacle.  An iteration that stalls, cycles or
reaches its cap of N steps raises DamageSolveError, which run_weak hands on
with the failed step and the partial trajectory.  A step reports its Newton
steps, its KKT residual and its active-set size; it never evaluates P.
Positivity of chi is never imposed: when the degradation coefficient a is
nondecreasing, convex, and vanishes on the negative axis, the minimizer is
automatically nonnegative, and the truncation consistency check verifies
that after the fact.

The reduced Newton systems and the momentum system are tridiagonal and go
straight to LAPACK (?gtsv and ?ptsv).  The energy, dissipation and work of
every step, which the discrete EDI check needs at any output stride, are
evaluated on the buffered snapshots of BLOCK steps at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import BLOCK, step_series
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
from .forcing import local_time_means
from .model import (
    MaterialLaw,
    PotentialSplit,
    ScenarioConfig,
    validate_material,
)
from .trajectory import Snapshot, StepReport, Trajectory

__all__ = [
    "DamageSubproblem",
    "DamageSolveError",
    "MomentumSolveError",
    "assemble_damage_subproblem",
    "damage_step",
    "momentum_step",
    "damage_tau_max",
    "run_weak",
    "truncation_consistency_check",
    "one_sided_vi_residual",
    "apriori_monitors",
]


class DamageSolveError(RuntimeError):
    pass


class MomentumSolveError(RuntimeError):
    pass


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
    chi_prev: np.ndarray       # chi^{k-1}, also the obstacle
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
        if np.any(chi > self.chi_prev + 1e-14):
            return math.inf
        bs = self.breve_sum(chi)
        if not np.isfinite(bs):
            return math.inf
        return self.smooth_value(chi) + bs

    def lipschitz_guess(self) -> float:
        """Bound on the curvature of the smooth part per unit nodal weight:
        the least complementarity constant of the active-set test and the
        scale of the KKT residual."""
        h = 2.0 * float(np.min(self.w))
        base = float(np.max(self.w)) / self.tau + 4.0 / h
        curv = np.max(np.abs(self.material.a.d2(self.chi_prev)) * self.load
                      / np.maximum(self.w, 1e-300))
        return base + float(curv)


def assemble_damage_subproblem(ops: Operators, material: MaterialLaw,
                               potential: PotentialSplit, u_prev: np.ndarray,
                               chi_prev: np.ndarray, tau: float) -> DamageSubproblem:
    load = ops.elastic_load(u_prev, material.C)
    drift = ops.w * (-potential.ell * chi_prev)
    return DamageSubproblem(
        tau=tau, w=ops.w, S=ops.S, load=load, drift=drift,
        chi_prev=chi_prev.copy(),
        material=material, potential=potential,
    )


def damage_tau_max(potential: PotentialSplit) -> float:
    """Coercivity threshold tau < 1/(2 c_W^2) with c_W the affine-minorant
    slope of the convex part, estimated at the domain anchor."""
    graph = potential.convex_part
    c = float(np.atleast_1d(graph.minimal_section(graph.anchor))[0])
    if not np.isfinite(c) or abs(c) < 1e-300:
        return math.inf
    return 1.0 / (2.0 * c * c)


def damage_step(sub: DamageSubproblem, tol_inner: float = 1e-10,
                start: np.ndarray | None = None) -> tuple:
    """Minimize P over the obstacle set; returns (chi, StepReport).

    The active-set Newton iteration runs from ``start`` (default chi^{k-1})
    for at most N steps: a front of active nodes that the start misplaces
    recedes by about one node per side and step.  If it stops above
    ``tol_inner`` (stalled, cycling or capped) DamageSolveError is raised
    with the KKT residual.  The convex part needs a derivative or
    piecewise-affine data.
    """
    graph = sub.graph
    if graph.derivative is None and graph.pw_jumps is None:
        raise ValueError(f"convex part {graph.name!r} has neither a "
                         "derivative nor piecewise-affine data")
    x = sub.chi_prev if start is None else start
    chi, newton_iters, kkt = _active_set_newton(sub, x, tol_inner,
                                                sub.lipschitz_guess())
    if kkt > tol_inner:
        raise DamageSolveError(
            f"damage minimization stopped after {newton_iters} Newton steps "
            f"at KKT residual {kkt:.3e}")
    return chi, StepReport(
        step=-1,
        newton_iterations=newton_iters,
        kkt_residual=kkt,
        active_count=int(np.sum(sub.chi_prev - chi <= 1e-12)),
    )


def _active_set_newton(sub: DamageSubproblem, x: np.ndarray, tol: float,
                       scale: float) -> tuple:
    """Primal-dual active set iteration on the reduced tridiagonal system;
    returns (chi, Newton steps, KKT residual).  Stops after N steps, on a
    stalled step, or when an active set other than the last one recurs
    (cycling).

    Iterates stay in the domain of the convex part and below the obstacle
    chi^{k-1}: between the bounds lb and ub.  A node goes to a bound when
    chi - R/c crosses it, R its residual and c its complementarity
    constant: ``scale``, or where larger the curvature of the convex part
    at the node.  A steep barrier (the logarithmic potential near 0) then
    does not send a node from one bound to the other and back.  The KKT
    residual is the natural residual scale * |chi - clip(chi - R/scale)|,
    taken after each step; its R feeds the next step's active-set test.
    """
    graph = sub.graph
    lo, hi = graph.domain
    lb = np.full(x.size, lo)
    ub = np.minimum(sub.chi_prev, hi)
    has_smooth = graph.derivative is not None

    def residual(c):
        R = sub.smooth_grad(c)
        return R + sub.w * graph.minimal_section(c) if has_smooth else R

    chi = np.clip(x, lb, ub)
    R = residual(chi)
    seen, last = set(), None
    for it in range(1, x.size + 1):
        c = (np.maximum(scale, sub.w * graph.derivative(chi)) if has_smooth
             else scale)
        act_up = (-R + c * (chi - ub)) > 0.0
        act_lo = (R + c * (lb - chi)) > 0.0
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
        R = residual(chi)
        projected = np.clip(chi - R / scale, lb, ub)
        kkt = scale * float(np.max(np.abs(chi - projected)))
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
    except np.linalg.LinAlgError as exc:
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
    mesh = build_mesh(config.N, config.L)
    ops = assemble_operators(mesh)
    config.validate(mesh.nodes)
    tau = config.tau

    tmax = damage_tau_max(config.potential)
    if tau >= tmax:
        raise ValueError(f"tau = {tau:g} exceeds the coercivity bound {tmax:g}")

    u0, v0, chi0 = config.initial_fields(mesh.nodes)
    means = local_time_means(config.forcing, config.boundary, config.K, tau,
                             mesh.nodes)
    traj = Trajectory(mode="weak", mesh=mesh, ops=ops,
                      material=config.material, potential=config.potential,
                      tau=tau, forcing_means=means, extras={"config": config})
    snap0 = Snapshot(t=0.0, u=u0.copy(), v=v0.copy(), chi=chi0.copy(),
                     chi_t=np.zeros_like(chi0))
    traj.append(snap0)

    E_series, D_series, work_series = np.zeros((3, config.K + 1))
    mono_ok = True
    pending, k0 = [snap0], 0       # snapshots of steps k0, k0 + 1, ...

    u, chi, chi_prev = u0, chi0, chi0
    u_prev2 = u0 - tau * v0
    lo = config.potential.convex_part.domain[0]
    for k in range(1, config.K + 1):
        sub = assemble_damage_subproblem(ops, config.material, config.potential,
                                         u, chi, tau)
        # Newton start chi^{k-1} + tau chi_t^{k-1}, clipped to the obstacle set
        predictor = np.clip(2.0 * chi - chi_prev, lo, chi)
        with traj.failing_at(k, DamageSolveError, MomentumSolveError):
            chi_k, report = damage_step(sub, tol_inner=config.tolerances.inner,
                                        start=predictor)
            u_k, lin_res = momentum_step(ops, config.material, chi_k, u,
                                         u_prev2, tau, *means.rows(k - 1),
                                         tol_lin=config.tolerances.lin)
        report.step = k
        report.linear_residual = lin_res
        traj.step_reports.append(report)
        snap = Snapshot(t=k * tau, u=u_k, v=(u_k - u) / tau, chi=chi_k,
                        chi_t=(chi_k - chi) / tau)
        u_prev2, u, chi_prev, chi = u, u_k, chi, chi_k
        pending.append(snap)
        if len(pending) == BLOCK or k == config.K:
            rows = slice(k0, k + 1)
            E_series[rows], D_series[rows], work_series[rows], uni = \
                step_series(pending, k0, config.material, config.potential,
                            ops, tau, means, config.tolerances.mono)
            mono_ok &= uni
            pending, k0 = [], k + 1
        if k % config.output_stride == 0 or k == config.K:
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


def _steps(traj: Trajectory, check: str):
    """(snapshot k, damage subproblem of step k) for each step k; raises at
    once, not on the first iteration, when ``traj`` is strided."""
    traj.require_every_step(check)
    return ((cur, assemble_damage_subproblem(traj.ops, traj.material,
                                             traj.potential, prev.u, prev.chi,
                                             traj.tau))
            for prev, cur in zip(traj.snapshots, traj.snapshots[1:]))


def truncation_consistency_check(traj: Trajectory,
                                 tol: float = 1e-10) -> TruncationReport:
    """Verify chi^k = max(chi^k, 0) and P((chi^k)^+) <= P(chi^k) stepwise.

    Only meaningful when a is nondecreasing, vanishing on the negative axis,
    and convex; otherwise the check is skipped with a warning.
    """
    steps = _steps(traj, "the truncation consistency check")
    report = validate_material(traj.material)
    if not report.degradation_shape_ok():
        return TruncationReport(
            skipped=True, passed=True,
            warning="degradation coefficient lacks the monotone-convex-"
                    "vanishing shape; positivity of chi is not asserted")

    worst_neg = 0.0
    worst_gap = 0.0
    for cur, sub in steps:
        worst_neg = min(worst_neg, float(np.min(cur.chi)))
        plus = np.maximum(cur.chi, 0.0)
        gap = sub.objective(plus) - sub.objective(cur.chi)
        worst_gap = max(worst_gap, gap)
    passed = worst_neg >= -tol and worst_gap <= tol
    return TruncationReport(skipped=False, worst_negative=worst_neg,
                            worst_objective_gap=worst_gap, passed=passed)


def one_sided_vi_residual(traj: Trajectory) -> np.ndarray:
    """Per-step minimum of the discrete one-sided variational inequality's
    left-hand side over every admissible test function, a (K,)-array.

    With the load l and the concave drift of ``assemble_damage_subproblem``
    at step k (the form the scheme satisfies to solver tolerance), the
    left-hand side at a nodal test function phi is g . phi,

      g = w chi_t + S chi + a'(chi) l + w Wcheck'(chi^{k-1})
          (+ w Wbreve'(chi) for a smooth potential);

    for the indicator box the difference Wbreve(chi + phi) - Wbreve(chi)
    vanishes on every admissible phi.  The admissible phi are nonpositive,
    keep chi + phi in the domain [lo, ...) of Wbreve and are at most 1 in
    size: -min(chi - lo, 1) <= phi <= 0.  The minimum over that box is

      - sum_i g_i^+ min(chi_i - lo, 1),

    continuous in chi at lo: a node resting on lo counts for nothing.
    """
    a, potential = traj.material.a, traj.potential
    lo = potential.convex_part.domain[0]
    out = []
    for cur, sub in _steps(traj, "the one-sided VI residual"):
        g = (sub.w * cur.chi_t + banded_matvec(sub.S, cur.chi)
             + a.d1(cur.chi) * sub.load + sub.drift)
        if potential.smooth:
            g += sub.w * potential.breve_dW(cur.chi)
        out.append(-float(np.dot(np.maximum(g, 0.0),
                                 np.minimum(cur.chi - lo, 1.0))))
    return np.array(out)


def apriori_monitors(traj: Trajectory) -> dict:
    """Discrete analogues of the a-priori bounded norms (reported, not asserted)."""
    traj.require_every_step("apriori_monitors")
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
