"""Regularized spectral scheme for strong-solution approximants.

Displacements are expanded on the Neumann eigenbasis V_n = span{1, y_1, ..,
y_n} of -d/dx(V d/dx); the damage flow rule is replaced by the
delta-regularized, nu-hyperbolic system in (omega, chi):

    c-dot-dot_j + [D(chi) c-dot]_j + [A(chi) c]_j = f_j            (modal)
    nu omega_tt + omega + chi_t + I_delta'(chi_t)
        + a'(chi) C/2 |u_x|^2 + Wcheck'(chi) - chi = 0             (nodal)
    -Delta chi + Wbreve_delta'(chi) + chi = omega                  (nodal FEM)

with D(chi) = Y^T S_{b(chi)V} Y, A(chi) = Y^T S_{a(chi)C} Y.  chi is always
recovered from omega through the semilinear Neumann solve (coherence), and
chi_t from omega_t through the linearized solve
(S + W_L diag(1 + Wbreve_delta''(chi))) chi_t = W_L omega_t.

Time stepping is implicit midpoint; each stage reduces, after eliminating
the modal block (a small dense solve) and omega through
omega_t = W_L^{-1} B_sym chi_t, to one monotone tridiagonal Newton solve in
chi_t per outer iteration:

  (nu/dt + dt) B_sym chi_t + W_L (chi_t + I_delta'(chi_t))
      = (nu/dt) W_L omega_t^k - W_L (omega^k + G(chi, u)).

This solve, the coherence solve and the slaved start's nodewise flow rule
all read A x + W_L (x + g(x)) = b, A SPD tridiagonal or zero, g monotone;
one damped Newton routine, ``_monotone_solve``, solves all three.

The division by (nu/dt) keeps the stiff 1/nu term exact, so arbitrarily
small nu is stable; because the midpoint rule does not damp the initial
fast layer when omega_t(0) is off the slow manifold, the first
``_STARTUP_STEPS`` steps are taken as pairs of backward-Euler half-steps
(Rannacher smoothing), which preserves the overall second order.

Each stage's outer iteration starts from the predictor chi + dt chi_t of
its start state, not from chi, and the midpoint update extrapolates chi as
2 stage - start like every other field, so the coherence restoration at
the end of the step starts near its answer as well.

The scheme conserves the mean-displacement identity exactly in the discrete
sense (constant test function), tracked per step with scheme-consistent
quadrature weights.

The pair (delta, nu), the mode and step counts and the initial rate
``varpi0`` are the scenario's ``StrongSettings``; with ``schedule_n = n``
they resolve to delta = 2^-n, nu = 2^-4n.  The resolved settings are
``StrongOperators.params`` and the trajectory's ``extras["params"]``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .discretization import (
    EigenBasis,
    Operators,
    assemble_operators,
    banded_matvec,
    banded_quadform,
    build_mesh,
    neumann_eigenbasis,
    solve_spd_tridiag,
)
from .model import MaterialLaw, PotentialSplit, ScenarioConfig, StrongSettings
from .regularization import RegularizedFunction, make_I_delta, make_W_delta
from .trajectory import Snapshot, StepReport, Trajectory

__all__ = [
    "SpectralState",
    "BlowupMonitor",
    "StrongOperators",
    "StageError",
    "chi_from_omega",
    "stability_ratio",
    "chi_rate_from_omega_rate",
    "step_regularized",
    "run_strong",
]

# leading steps taken as two backward-Euler halves each
_STARTUP_STEPS = 2


class StageError(RuntimeError):
    pass


@dataclass
class SpectralState:
    t: float
    c: np.ndarray          # modal u coefficients
    cdot: np.ndarray       # modal velocity coefficients
    omega: np.ndarray
    omega_t: np.ndarray
    chi: np.ndarray
    chi_t: np.ndarray


@dataclass
class BlowupMonitor:
    psi_max: float
    times: list = field(default_factory=list)
    ut_h2: list = field(default_factory=list)
    chi_h2: list = field(default_factory=list)
    omega_l2: list = field(default_factory=list)
    int_ut_h3: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    nu_omega_t_sq: list = field(default_factory=list)
    horizon_time: Optional[float] = None

    @property
    def horizon_hit(self) -> bool:
        return self.horizon_time is not None

    def record(self, t, ut_h2, chi_h2, omega_l2, int_h3, nu_wt) -> float:
        val = ut_h2**2 + chi_h2**2 + omega_l2**2 + int_h3 + 1.0
        self.times.append(t)
        self.ut_h2.append(ut_h2)
        self.chi_h2.append(chi_h2)
        self.omega_l2.append(omega_l2)
        self.int_ut_h3.append(int_h3)
        self.nu_omega_t_sq.append(nu_wt)
        self.psi.append(val)
        return val

    def to_dict(self) -> dict:
        return dict(asdict(self),
                    verdict="horizon" if self.horizon_hit else "completed")


@dataclass
class StrongOperators:
    """Assembled spatial machinery shared by all stages of one run."""

    ops: Operators
    basis: EigenBasis
    material: MaterialLaw
    potential: PotentialSplit
    reg_W: RegularizedFunction
    reg_I: RegularizedFunction
    params: StrongSettings      # resolved: (delta, nu) as run
    # nodal differences dY of the basis vectors, shared by modal_matrices
    dY: np.ndarray = field(init=False, repr=False)
    # (shape, bytes) of the last damping coefficient b(chi) and its Gram;
    # not an init field, so dataclasses.replace starts the copy without it
    _damping_memo: Optional[tuple] = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        self.dY = np.diff(self.basis.vectors, axis=0)

    def elastic_density(self, u_nodal) -> np.ndarray:
        """Nodal density q_i of C/2 |u_x|^2 (load / quadrature weight)."""
        return self.ops.elastic_load(u_nodal, self.material.C) / self.ops.w

    def flow_source(self, chi, density) -> np.ndarray:
        """G = a'(chi) C/2 |u_x|^2 + Wcheck'(chi) - chi, with the nodal
        density of C/2 |u_x|^2 given (``elastic_density``)."""
        return (self.material.a.d1(chi) * density
                - self.potential.ell * chi - chi)

    def modal_matrices(self, chi):
        """D = Y^T S_{b(chi)V} Y and A = Y^T S_{a(chi)C} Y, each formed as
        dY^T diag(c_e/h) dY from the nodal differences dY of the basis.

        D is remembered for the last b(chi): a call whose b(chi) has the
        shape and the bits of the previous call's returns the remembered
        D (with a constant b, every call after the first).  D is returned
        as a fresh copy, so a caller that writes into it changes nothing
        here."""
        dY, h = self.dY, self.ops.mesh.h

        def gram(coeff, modulus):
            ce = modulus / h * self.ops.element_mean(coeff)
            return dY.T @ (ce[:, None] * dY)

        b = self.material.b(chi)
        key, memo = (b.shape, b.tobytes()), self._damping_memo
        if memo is None or memo[0] != key:
            memo = (key, gram(b, self.material.V))
            self._damping_memo = memo
        return memo[1].copy(), gram(self.material.a(chi), self.material.C)

    def bsym(self, chi) -> np.ndarray:
        B = self.ops.S.copy()
        B[1] += self.ops.w * (1.0 + self.reg_W.d1(chi))
        return B

    def omega_of_chi(self, chi) -> np.ndarray:
        return (banded_matvec(self.ops.S, chi) / self.ops.w
                + self.reg_W.value(chi) + chi)


def _monotone_solve(ops: Operators, A: np.ndarray, reg: RegularizedFunction,
                    b: np.ndarray, x: np.ndarray, tol: float,
                    max_iter: int = 60) -> tuple:
    """Solve A x + W_L (x + g(x)) = b from x, with A SPD tridiagonal (banded
    storage) or zero and g = ``reg`` monotone, by damped Newton.

    The Jacobian A + W_L diag(1 + g') is SPD, so the iteration is globally
    convergent with backtracking.  The residual r is measured in the lumped
    L2 norm of r / w and met below ``tol`` (1 + max|b / w|).  Where it
    stalls above that (backtracking exhausted, or ``max_iter`` steps
    taken) the iterate is accepted if its residual is below the round-off
    of its own terms, 4 eps (|A||x| + w (|g(x)| + |x|) + |b|) / w in the
    same norm; otherwise the solve raises StageError.  Returns (x, the
    Newton steps taken, 0 for a start that already converged, the final
    residual).
    """
    w = ops.w

    def residual(y):
        """Residual at y, with g(y) and g'(y) from the same evaluation."""
        gv, gd, _ = reg.eval_all(y)
        return banded_matvec(A, y) + w * (y + gv) - b, gv, gd

    def res_norm(r):
        return float(np.sqrt(np.dot(w, (r / w) ** 2)))

    def damped_step():
        """The backtracked Newton candidate from x, or None."""
        J = A.copy()
        J[1] += w * (1.0 + gd)
        step = solve_spd_tridiag(J, -r)
        lam = 1.0
        for _ in range(40):
            cand = x + lam * step
            rc, gvc, gdc = residual(cand)
            rcn = res_norm(rc)
            if rcn <= (1.0 - 0.25 * lam) * rn or rcn <= tol:
                return cand, rc, rcn, gvc, gdc
            lam *= 0.5
        return None

    r, gv, gd = residual(x)
    rn = res_norm(r)
    tol = tol * (1.0 + float(np.max(np.abs(b / w))))
    for it in range(max_iter + 1):
        if rn <= tol:
            break
        accepted = damped_step() if it < max_iter else None
        if accepted is None:
            floor = 4.0 * np.finfo(float).eps * res_norm(
                banded_matvec(np.abs(A), np.abs(x))
                + w * (np.abs(gv) + np.abs(x)) + np.abs(b))
            if rn <= floor:
                break
            raise StageError(
                f"damped Newton stalled after {it} Newton steps: residual "
                f"{rn:.3e} above tolerance {tol:.3e} and round-off {floor:.3e}")
        x, r, rn, gv, gd = accepted
    return x, it, rn


def chi_from_omega(sops: StrongOperators, omega: np.ndarray,
                   chi_init: Optional[np.ndarray] = None,
                   tol_ell: float = 1e-10, max_iter: int = 60):
    """Solve the semilinear Neumann problem -Delta chi + W'(chi) + chi = omega
    on the lumped FEM system, S chi + W_L (chi + W'(chi)) = W_L omega, by
    ``_monotone_solve`` from ``chi_init`` (default omega) to the tolerance
    ``tol_ell`` (1 + max|omega|).

    Returns (chi, info) where info reports the Newton steps taken
    ("iterations", 0 for a start that already converged) and the final
    residual ("residual"); the measured stability ratio of the answer is
    ``stability_ratio(sops, chi, omega)``.
    """
    ops = sops.ops
    start = omega if chi_init is None else chi_init
    chi, it, rn = _monotone_solve(ops, ops.S, sops.reg_W, ops.w * omega,
                                  start.copy(), tol_ell, max_iter)
    return chi, {"iterations": it, "residual": rn}


def stability_ratio(sops: StrongOperators, chi: np.ndarray,
                    omega: np.ndarray) -> float:
    """Measured stability ratio S0 = (||chi||_H2 + ||W'(chi)||) / ||omega||
    of the semilinear Neumann solve chi = chi_from_omega(omega) (not
    asserted); inf for omega = 0."""
    ops = sops.ops
    onorm = ops.l2_norm_lumped(omega)
    if onorm <= 0:
        return math.inf
    wnorm = ops.l2_norm_lumped(sops.reg_W.value(chi))
    return (ops.h2_norm(chi) + wnorm) / onorm


def chi_rate_from_omega_rate(sops: StrongOperators, chi: np.ndarray,
                             omega_t: np.ndarray) -> np.ndarray:
    """Solve (S + W_L diag(1 + W''(chi))) chi_t = W_L omega_t."""
    return solve_spd_tridiag(sops.bsym(chi), sops.ops.w * omega_t)


def _newton_tol(tol_ode: float) -> float:
    """``_monotone_solve`` tolerance of the stage solves and the slaved start."""
    return min(tol_ode, 1e-10)


def _slaved_omega_t(sops: StrongOperators, chi0, u0_nodal, omega0,
                    tol_ode: float) -> np.ndarray:
    """Compatible omega_t(0): solve the quasi-static (nu = 0) flow rule
    chi_t + I_delta'(chi_t) = -(omega + G) nodewise (``_monotone_solve``
    with A = 0, from min(rhs, 0)), then push the rate through the coherence
    relation omega_t = W_L^{-1} B_sym chi_t."""
    ops = sops.ops
    rhs = -(omega0 + sops.flow_source(chi0, sops.elastic_density(u0_nodal)))
    x, _, _ = _monotone_solve(ops, np.zeros_like(ops.S), sops.reg_I,
                              ops.w * rhs, np.minimum(rhs, 0.0),
                              _newton_tol(tol_ode))
    return banded_matvec(sops.bsym(chi0), x) / ops.w


def _stage_solve(sops: StrongOperators, state: SpectralState, dt: float,
                 f_modal, tol_ode: float):
    """Solve the theta-stage system m = z + dt F(m) by at most 40 outer
    (Picard) iterations in chi, started from the predictor chi + dt chi_t of
    the state.

    Returns (stage state, outer iterations, chi_from_omega Newton iterations
    summed over the outer iterations)."""
    ops = sops.ops
    nu = sops.params.nu
    chi_m = state.chi + dt * state.chi_t
    chit_m = state.chi_t.copy()
    eye = np.eye(state.c.size)
    newton = 0
    tol_newton = _newton_tol(tol_ode)

    flow_scale = 1.0 + float(np.max(np.abs(state.omega)))
    for outer in range(1, 41):
        Dm, Am = sops.modal_matrices(chi_m)
        lhs = eye + dt * Dm + dt * dt * Am
        rhs = state.cdot + dt * (f_modal - Am @ state.c)
        v_m = np.linalg.solve(lhs, rhs)
        c_m = state.c + dt * v_m
        q_m = sops.elastic_density(sops.basis.synthesize(c_m))

        G = sops.flow_source(chi_m, q_m)
        B = sops.bsym(chi_m)
        rhs_chi = (nu / dt) * ops.w * state.omega_t - ops.w * (state.omega + G)

        chit_m, _, _ = _monotone_solve(ops, (nu / dt + dt) * B, sops.reg_I,
                                       rhs_chi, chit_m, tol_newton)
        omt_m = banded_matvec(B, chit_m) / ops.w
        om_m = state.omega + dt * omt_m
        chi_new, info = chi_from_omega(sops, om_m, chi_init=chi_m,
                                       tol_ell=tol_newton)
        newton += info["iterations"]

        # flow-rule residual at the stage point
        flow_res = (nu * (omt_m - state.omega_t) / dt + om_m + chit_m
                    + sops.reg_I.value(chit_m)
                    + sops.flow_source(chi_new, q_m))
        rn = float(np.sqrt(np.dot(ops.w, flow_res**2)))
        drift = float(np.max(np.abs(chi_new - chi_m)))
        chi_m = chi_new
        if rn <= tol_ode * flow_scale and drift <= tol_ode:
            break
    else:
        raise StageError(f"stage iteration stalled: flow residual {rn:.3e}")

    return SpectralState(t=state.t + dt, c=c_m, cdot=v_m, omega=om_m,
                         omega_t=omt_m, chi=chi_m, chi_t=chit_m), outer, newton


def step_regularized(sops: StrongOperators, state: SpectralState, tau: float,
                     forcing_modal, tol_ode: float = 1e-8,
                     kind: str = "midpoint"):
    """Advance one step of size tau by stage solves of length tau/2, each
    forced at its end time; a failed stage raises StageError at once.

    kind = "midpoint": symmetric second-order stage at t + tau/2, whose
    update extrapolates every field, chi included, as 2 stage - start;
    kind = "be": two backward-Euler half-steps (startup smoothing).  Each
    stage solve starts from the predictor chi + dt chi_t, and the coherence
    restoration at the end starts from the updated chi.

    Returns (state, records, counts).  Each record (dt, s, f0) carries the
    mean-identity quadrature of one stage: it adds dt (t - s) f0 to the
    mean displacement at time t, f0 being the constant-mode forcing
    coefficient.  counts holds the stage outer iterations
    ("inner_iterations") and the chi_from_omega Newton iterations
    ("newton_iterations") of the stages and the restoration.
    """
    h = 0.5 * tau
    counts = {"inner_iterations": 0, "newton_iterations": 0}

    def stage(z):
        fm = forcing_modal(z.t + h)
        out, outer, newton = _stage_solve(sops, z, h, fm, tol_ode)
        counts["inner_iterations"] += outer
        counts["newton_iterations"] += newton
        return out, fm[0]

    if kind == "be":
        half, f1 = stage(state)
        out, f2 = stage(half)
        records = [(h, state.t, f1), (h, half.t, f2)]
    else:
        mid, f0 = stage(state)
        out = SpectralState(
            t=state.t + tau,
            c=2.0 * mid.c - state.c,
            cdot=2.0 * mid.cdot - state.cdot,
            omega=2.0 * mid.omega - state.omega,
            omega_t=2.0 * mid.omega_t - state.omega_t,
            chi=2.0 * mid.chi - state.chi,
            chi_t=mid.chi_t)
        records = [(tau, mid.t, f0)]

    # coherence restoration at the new time level
    chi, info = chi_from_omega(sops, out.omega, chi_init=out.chi)
    counts["newton_iterations"] += info["iterations"]
    out.chi = chi
    out.chi_t = chi_rate_from_omega_rate(sops, chi, out.omega_t)
    return out, records, counts


def run_strong(config: ScenarioConfig):
    """Integrate the regularized spectral system; returns (Trajectory, BlowupMonitor).

    Hitting the psi_max threshold stops the run and is reported as the
    numerical local-existence horizon, not as an error.  A step whose stage
    solve fails raises StageError with the partial trajectory and the
    failed step attached; a failed slaved start is step 0, with an empty
    trajectory.
    """
    mesh = build_mesh(config.N, config.L)
    ops = assemble_operators(mesh)
    config.validate(mesh.nodes, mode="strong")

    params = config.strong.resolved()
    basis = neumann_eigenbasis(mesh, config.material.V, params.n_modes,
                               ops=ops, tol_eig=config.tolerances.eig)
    reg_W = make_W_delta(config.potential, params.delta)
    reg_I = make_I_delta(params.delta)
    sops = StrongOperators(ops=ops, basis=basis, material=config.material,
                           potential=config.potential, reg_W=reg_W,
                           reg_I=reg_I, params=params)

    steps = params.steps
    tau = config.T / steps
    traj = Trajectory(mode="strong", mesh=mesh, ops=ops,
                      material=config.material, potential=config.potential,
                      tau=tau,
                      extras={"config": config, "params": params,
                              "reg_W": reg_W, "reg_I": reg_I, "basis": basis,
                              "mean_identity": []})
    monitor = BlowupMonitor(psi_max=params.psi_max)

    u0, v0, chi0 = config.initial_fields(mesh.nodes)
    c0 = basis.project(ops, u0)
    cdot0 = basis.project(ops, v0)
    omega0 = sops.omega_of_chi(chi0)
    if params.varpi0 == "slaved":
        with traj.failing_at(0, StageError):
            omega_t0 = _slaved_omega_t(sops, chi0, basis.synthesize(c0),
                                       omega0, config.tolerances.ode)
    else:
        omega_t0 = np.full(mesh.N, float(params.varpi0))
    chi_t0 = chi_rate_from_omega_rate(sops, chi0, omega_t0)
    state = SpectralState(t=0.0, c=c0, cdot=cdot0, omega=omega0,
                          omega_t=omega_t0, chi=chi0.copy(), chi_t=chi_t0)

    def forcing_modal(t):
        return basis.project(ops, config.forcing.at(t, mesh.nodes))

    ones = np.ones(mesh.N)
    sqrtL = math.sqrt(banded_quadform(ops.M, ones))
    int_u0 = sqrtL * c0[0]
    int_v0 = sqrtL * cdot0[0]

    int_h3 = prev_h3sq = 0.0
    last_t = 0.0
    # running sums of dt f0 and dt s f0 over the stage records, so that
    # the forcing term of the mean identity at time t is t sum_f - sum_sf
    sum_f = sum_sf = 0.0

    def record(state):
        nonlocal int_h3, prev_h3sq, last_t
        u = basis.synthesize(state.c)
        v = basis.synthesize(state.cdot)
        h2_v, h3_v = ops.h2_h3_norms(v)
        if state.t > last_t:
            int_h3 += 0.5 * (state.t - last_t) * (prev_h3sq + h3_v ** 2)
            last_t = state.t
        prev_h3sq = h3_v ** 2
        psi = monitor.record(
            state.t, h2_v, ops.h2_norm(state.chi),
            ops.l2_norm_lumped(state.omega), int_h3,
            params.nu * ops.l2_norm_lumped(state.omega_t) ** 2)
        # discrete mean identity (constant test function)
        dd = sqrtL * (state.t * sum_f - sum_sf)
        res = abs(sqrtL * state.c[0] - int_u0 - state.t * int_v0 - dd)
        traj.extras["mean_identity"].append(
            (state.t, res, 1.0 + abs(sqrtL * state.c[0])))
        traj.append(Snapshot(
            t=state.t, u=u, v=v, chi=state.chi.copy(),
            chi_t=state.chi_t.copy(), omega=state.omega.copy(),
            omega_t=state.omega_t.copy()))
        return psi

    record(state)

    for k in range(1, steps + 1):
        kind = "be" if k <= _STARTUP_STEPS else "midpoint"
        with traj.failing_at(k, StageError):
            state, recs, counts = step_regularized(
                sops, state, tau, forcing_modal,
                tol_ode=config.tolerances.ode, kind=kind)
        for dt, s, f0 in recs:
            sum_f += dt * f0
            sum_sf += dt * s * f0
        traj.step_reports.append(StepReport(step=k, **counts))
        if k % config.output_stride == 0 or k == steps:
            psi = record(state)
            if psi > params.psi_max:
                monitor.horizon_time = state.t
                break
    return traj, monitor
