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

The division by (nu/dt) keeps the stiff 1/nu term exact, so arbitrarily
small nu is stable; because the midpoint rule does not damp the initial
fast layer when omega_t(0) is off the slow manifold, the first
``startup_steps`` steps are taken as pairs of backward-Euler half-steps
(Rannacher smoothing), which preserves the overall second order.

Each stage's outer iteration starts from the predictor chi + dt chi_t of
its start state, not from chi, and the midpoint update extrapolates chi as
2 stage - start like every other field, so the coherence restoration at
the end of the step starts near its answer as well.

The scheme conserves the mean-displacement identity exactly in the discrete
sense (constant test function), tracked per step with scheme-consistent
quadrature weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .forcing import Forcing
from .model import MaterialLaw, PotentialSplit, ScenarioConfig, StrongSettings
from .regularization import RegularizedFunction, make_I_delta, make_W_delta
from .trajectory import Snapshot, StepReport, Trajectory

__all__ = [
    "RegParams",
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


class StageError(RuntimeError):
    pass


@dataclass(frozen=True)
class RegParams:
    """Regularization pair (delta, nu) with the vanishing-scaling schedule."""

    delta: float
    nu: float
    schedule_n: Optional[int] = None
    varpi0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")

    @classmethod
    def from_schedule(cls, n: int, varpi0: float = 0.0) -> "RegParams":
        s = StrongSettings(schedule_n=n).resolved()
        return cls(delta=s.delta, nu=s.nu, schedule_n=n, varpi0=varpi0)

    @property
    def scaling_ratio(self) -> float:
        return math.sqrt(self.nu) / self.delta


@dataclass
class SpectralState:
    t: float
    c: np.ndarray          # modal u coefficients
    cdot: np.ndarray       # modal velocity coefficients
    omega: np.ndarray
    omega_t: np.ndarray
    chi: np.ndarray
    chi_t: np.ndarray

    def copy(self) -> "SpectralState":
        return SpectralState(self.t, self.c.copy(), self.cdot.copy(),
                             self.omega.copy(), self.omega_t.copy(),
                             self.chi.copy(), self.chi_t.copy())


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
    growth_beta: Optional[float] = None
    horizon_formula: Optional[float] = None

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

    def finalize_formula(self, p: float, q: float) -> None:
        """Exploratory only: the local-horizon formula with the growth
        exponents; the Gronwall constant is not explicit, so nothing is
        asserted against this value."""
        rho = max(p, q)
        beta = max(4.0 * rho + 12.0, 4.0 * p)
        self.growth_beta = beta
        psi0 = self.psi[0] if self.psi else 1.0
        self.horizon_formula = psi0 ** (1.0 - beta) / (2.0 * (beta - 1.0))

    def to_dict(self) -> dict:
        return {
            "psi_max": self.psi_max,
            "times": list(self.times),
            "psi": list(self.psi),
            "ut_h2": list(self.ut_h2),
            "chi_h2": list(self.chi_h2),
            "omega_l2": list(self.omega_l2),
            "int_ut_h3": list(self.int_ut_h3),
            "nu_omega_t_sq": list(self.nu_omega_t_sq),
            "horizon_time": self.horizon_time,
            "growth_beta": self.growth_beta,
            "horizon_formula_exploratory": self.horizon_formula,
            "verdict": "horizon" if self.horizon_hit else "completed",
        }


@dataclass
class StrongOperators:
    """Assembled spatial machinery shared by all stages of one run."""

    ops: Operators
    basis: EigenBasis
    material: MaterialLaw
    potential: PotentialSplit
    reg_W: RegularizedFunction
    reg_I: RegularizedFunction
    params: RegParams
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


def chi_from_omega(sops: StrongOperators, omega: np.ndarray,
                   chi_init: Optional[np.ndarray] = None,
                   tol_ell: float = 1e-10, max_iter: int = 60):
    """Solve the semilinear Neumann problem -Delta chi + W'(chi) + chi = omega.

    Damped Newton on the lumped FEM system; monotonicity of the regularized
    derivative makes the Jacobian S + W_L diag(1 + W'') SPD, so the iteration
    is globally convergent with backtracking.  Where the residual stalls
    above ``tol_ell (1 + max|omega|)`` (backtracking exhausted, or
    ``max_iter`` steps taken) the iterate is accepted if its residual is
    below the round-off of its own terms, 4 eps |S||chi| + w (|W'(chi)| +
    |chi| + |omega|) in the same norm; otherwise the solve fails.  Returns
    (chi, info) where info reports the Newton steps taken ("iterations", 0
    for a start that already converged) and the final residual
    ("residual"); the measured stability ratio of the answer is
    ``stability_ratio(sops, chi, omega)``.
    """
    ops = sops.ops
    chi = (omega.copy() if chi_init is None else chi_init.copy())

    def residual(c):
        """Residual at c, with W'(c) and W''(c) from the same evaluation."""
        wv, wd, _ = sops.reg_W.eval_all(c)
        return banded_matvec(ops.S, c) + ops.w * (wv + c - omega), wv, wd

    def res_norm(r):
        return float(np.sqrt(np.dot(ops.w, (r / ops.w) ** 2)))

    def damped_step():
        """The backtracked Newton candidate from chi, or None."""
        J = ops.S.copy()
        J[1] += ops.w * (1.0 + wd)
        step = solve_spd_tridiag(J, -r)
        lam = 1.0
        for _ in range(40):
            cand = chi + lam * step
            rc, wvc, wdc = residual(cand)
            rcn = res_norm(rc)
            if rcn <= (1.0 - 0.25 * lam) * rn or rcn <= tol:
                return cand, rc, rcn, wvc, wdc
            lam *= 0.5
        return None

    r, wv, wd = residual(chi)
    rn = res_norm(r)
    tol = tol_ell * (1.0 + float(np.max(np.abs(omega))))
    for it in range(max_iter + 1):
        if rn <= tol:
            break
        accepted = damped_step() if it < max_iter else None
        if accepted is None:
            floor = 4.0 * np.finfo(float).eps * res_norm(
                banded_matvec(np.abs(ops.S), np.abs(chi))
                + ops.w * (np.abs(wv) + np.abs(chi) + np.abs(omega)))
            if rn <= floor:
                break
            raise StageError(
                f"chi_from_omega stalled after {it} Newton steps: residual "
                f"{rn:.3e} above tolerance {tol:.3e} and round-off {floor:.3e}")
        chi, r, rn, wv, wd = accepted
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


def _slaved_omega_t(sops: StrongOperators, chi0, u0_nodal, omega0) -> np.ndarray:
    """Compatible omega_t(0): solve the quasi-static (nu = 0) flow rule
    chi_t + I_delta'(chi_t) = -(omega + G) nodewise, then push the rate
    through the coherence relation omega_t = W_L^{-1} B_sym chi_t."""
    rhs = -(omega0 + sops.flow_source(chi0, sops.elastic_density(u0_nodal)))
    x = np.minimum(rhs, 0.0)
    for _ in range(80):
        ival, idiff, _ = sops.reg_I.eval_all(x)
        r = x + ival - rhs
        if np.max(np.abs(r)) <= 1e-14 * (1.0 + np.max(np.abs(rhs))):
            break
        x = x - r / (1.0 + idiff)
    return banded_matvec(sops.bsym(chi0), x) / sops.ops.w


def _chi_t_newton(sops: StrongOperators, B: np.ndarray, coeff: float,
                  rhs: np.ndarray, x: np.ndarray) -> tuple:
    """Newton with SPD tridiagonal Jacobian for coeff B x + w (x + I_reg(x))
    = rhs, from x; returns (x, residual evaluations).

    Accepts a residual below 1e-13 (1 + max|rhs|) or below the round-off of
    coeff B x, where the residual can stall above that tolerance; a residual
    above both after 60 Newton steps is a failed solve."""
    w = sops.ops.w
    tol = 1e-13 * (1.0 + float(np.max(np.abs(rhs))))
    for it in range(1, 61):
        ival, idiff, _ = sops.reg_I.eval_all(x)
        F = coeff * banded_matvec(B, x) + w * (x + ival) - rhs
        fn = float(np.max(np.abs(F)))
        if fn <= tol or fn <= 4.0 * np.finfo(float).eps * coeff * float(
                np.max(banded_matvec(np.abs(B), np.abs(x)))):
            return x, it
        J = coeff * B
        J[1] += w * (1.0 + idiff)
        x = x + solve_spd_tridiag(J, -F)
    raise StageError(f"chi_t Newton did not converge: residual {fn:.3e}")


def _stage_solve(sops: StrongOperators, state: SpectralState, dt: float,
                 f_modal, tol_ode: float, max_outer: int = 40):
    """Solve the theta-stage system m = z + dt F(m) by outer (Picard)
    iteration in chi, started from the predictor chi + dt chi_t of the state.

    Returns (stage state, outer iterations, chi_from_omega Newton iterations
    summed over the outer iterations)."""
    ops = sops.ops
    nu = sops.params.nu
    chi_m = state.chi + dt * state.chi_t
    chit_m = state.chi_t.copy()
    v_m = state.cdot.copy()
    c_m = state.c.copy()
    eye = np.eye(state.c.size)
    newton = 0

    flow_scale = 1.0 + float(np.max(np.abs(state.omega)))
    for outer in range(1, max_outer + 1):
        Dm, Am = sops.modal_matrices(chi_m)
        lhs = eye + dt * Dm + dt * dt * Am
        rhs = state.cdot + dt * (f_modal - Am @ state.c)
        v_m = np.linalg.solve(lhs, rhs)
        c_m = state.c + dt * v_m
        q_m = sops.elastic_density(sops.basis.synthesize(c_m))

        G = sops.flow_source(chi_m, q_m)
        B = sops.bsym(chi_m)
        coeff = nu / dt + dt
        rhs_chi = (nu / dt) * ops.w * state.omega_t - ops.w * (state.omega + G)

        chit_m, _ = _chi_t_newton(sops, B, coeff, rhs_chi, chit_m)
        omt_m = banded_matvec(B, chit_m) / ops.w
        om_m = state.omega + dt * omt_m
        chi_new, info = chi_from_omega(sops, om_m, chi_init=chi_m,
                                       tol_ell=min(tol_ode, 1e-10))
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
                     kind: str = "midpoint", min_dt_factor: float = 2.0 ** -6):
    """Advance one step of size tau; halves the substep on stage failure.

    kind = "midpoint": symmetric second-order stage at t + tau/2, whose
    update extrapolates every field, chi included, as 2 stage - start;
    kind = "be": two backward-Euler half-steps (startup smoothing).  Each
    stage solve starts from the predictor chi + dt chi_t, and the coherence
    restoration at the end starts from the updated chi.

    Returns (state, records, counts).  Each record (dt, s, f0) carries the
    mean-identity quadrature of one substep: it adds dt (t - s) f0 to the
    mean displacement at time t, f0 being the constant-mode forcing
    coefficient.  counts holds the stage outer iterations
    ("inner_iterations") and the chi_from_omega Newton iterations
    ("newton_iterations") of the accepted substeps and the restoration.
    """
    records = []
    counts = {"inner_iterations": 0, "newton_iterations": 0}

    def advance(z, dt_nominal, scheme):
        dt_try = dt_nominal
        while True:
            nsub = int(round(dt_nominal / dt_try))
            try:
                cur = z
                recs, outer, newton = [], 0, 0
                for i in range(nsub):
                    if scheme == "midpoint":
                        t_eval = cur.t + 0.5 * dt_try
                        fm = forcing_modal(t_eval)
                        stage, o, n = _stage_solve(sops, cur, 0.5 * dt_try,
                                                   fm, tol_ode)
                        new = SpectralState(
                            t=cur.t + dt_try,
                            c=2.0 * stage.c - cur.c,
                            cdot=2.0 * stage.cdot - cur.cdot,
                            omega=2.0 * stage.omega - cur.omega,
                            omega_t=2.0 * stage.omega_t - cur.omega_t,
                            chi=2.0 * stage.chi - cur.chi,
                            chi_t=stage.chi_t)
                        recs.append((dt_try, t_eval, fm[0]))
                    else:
                        fm = forcing_modal(cur.t + dt_try)
                        new, o, n = _stage_solve(sops, cur, dt_try, fm,
                                                 tol_ode)
                        recs.append((dt_try, cur.t, fm[0]))
                    outer += o
                    newton += n
                    cur = new
            except StageError:
                if dt_try <= dt_nominal * min_dt_factor:
                    raise
                dt_try *= 0.5
                continue
            records.extend(recs)
            counts["inner_iterations"] += outer
            counts["newton_iterations"] += newton
            return cur

    if kind == "be":
        out = advance(advance(state, 0.5 * tau, "be"), 0.5 * tau, "be")
    else:
        out = advance(state, tau, "midpoint")

    # coherence restoration at the accepted time level
    chi, info = chi_from_omega(sops, out.omega, chi_init=out.chi)
    counts["newton_iterations"] += info["iterations"]
    out.chi = chi
    out.chi_t = chi_rate_from_omega_rate(sops, chi, out.omega_t)
    return out, records, counts


def run_strong(config: ScenarioConfig):
    """Integrate the regularized spectral system; returns (Trajectory, BlowupMonitor).

    Hitting the psi_max threshold stops the run and is reported as the
    numerical local-existence horizon, not as an error.  A step whose stage
    solves fail at the smallest substep raises StageError with the partial
    trajectory and the failed step attached.
    """
    mesh = build_mesh(config.N, config.L)
    ops = assemble_operators(mesh)
    config.validate(mesh.nodes, mode="strong")

    settings = config.strong.resolved()
    params = RegParams(delta=settings.delta, nu=settings.nu,
                       schedule_n=settings.schedule_n,
                       varpi0=settings.varpi0)
    basis = neumann_eigenbasis(mesh, config.material.V, settings.n_modes,
                               ops=ops, tol_eig=config.tolerances.eig)
    reg_W = make_W_delta(config.potential, params.delta)
    reg_I = make_I_delta(params.delta)
    sops = StrongOperators(ops=ops, basis=basis, material=config.material,
                           potential=config.potential, reg_W=reg_W,
                           reg_I=reg_I, params=params)

    u0, v0, chi0 = config.initial_fields(mesh.nodes)
    c0 = basis.project(ops, u0)
    cdot0 = basis.project(ops, v0)
    omega0 = sops.omega_of_chi(chi0)
    if settings.varpi0 == "slaved":
        omega_t0 = _slaved_omega_t(sops, chi0, basis.synthesize(c0), omega0)
    else:
        omega_t0 = np.full(mesh.N, float(settings.varpi0))
    chi_t0 = chi_rate_from_omega_rate(sops, chi0, omega_t0)
    state = SpectralState(t=0.0, c=c0, cdot=cdot0, omega=omega0,
                          omega_t=omega_t0, chi=chi0.copy(), chi_t=chi_t0)

    forcing = config.forcing or Forcing.zero()

    def forcing_modal(t):
        return basis.project(ops, forcing.at(t, mesh.nodes))

    steps = settings.steps
    tau = config.T / steps
    traj = Trajectory(mode="strong", mesh=mesh, ops=ops,
                      material=config.material, potential=config.potential,
                      tau=tau,
                      extras={"config": config, "params": params,
                              "reg_W": reg_W, "reg_I": reg_I, "basis": basis,
                              "mean_identity": []})
    monitor = BlowupMonitor(psi_max=settings.psi_max)

    ones = np.ones(mesh.N)
    sqrtL = math.sqrt(banded_quadform(ops.M, ones))
    int_u0 = sqrtL * c0[0]
    int_v0 = sqrtL * cdot0[0]

    int_h3 = prev_h3sq = 0.0
    last_t = 0.0
    # running sums of dt f0 and dt s f0 over the substep records, so that
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
            omega_t=state.omega_t.copy(), u_modal=state.c.copy(),
            v_modal=state.cdot.copy()))
        return psi

    record(state)

    stride = max(1, int(config.output_stride))
    for k in range(1, steps + 1):
        kind = "be" if k <= settings.startup_steps else "midpoint"
        try:
            state, recs, counts = step_regularized(
                sops, state, tau, forcing_modal,
                tol_ode=config.tolerances.ode, kind=kind)
        except StageError as exc:
            exc.partial_trajectory = traj
            exc.failed_step = k
            raise
        for dt, s, f0 in recs:
            sum_f += dt * f0
            sum_sf += dt * s * f0
        traj.step_reports.append(StepReport(step=k, **counts))
        if k % stride == 0 or k == steps:
            psi = record(state)
            if psi > settings.psi_max:
                monitor.horizon_time = state.t
                break
    monitor.finalize_formula(config.material.growth_p, config.material.growth_q)
    return traj, monitor
