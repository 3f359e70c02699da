import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from damage_sim.cli import _refined, run_scenario
from damage_sim.config import build_scenario, load_scenario, parse_config_text
from damage_sim.discretization import (
    Operators,
    assemble_operators,
    build_mesh,
    neumann_eigenbasis,
    solve_spd_tridiag,
    weighted_stiffness_banded,
)
from damage_sim.model import (
    MaterialLaw,
    ScenarioConfig,
    StrongSettings,
    make_potential,
    scalar_fn,
)
from damage_sim.regularization import (
    RegularizedFunction,
    graph_quadratic,
    make_I_delta,
    make_W_delta,
    regularize,
)
import damage_sim.strong_galerkin as sg
from damage_sim.strong_galerkin import (
    RegParams,
    StageError,
    StrongOperators,
    chi_from_omega,
    chi_rate_from_omega_rate,
    run_strong,
    stability_ratio,
)

from oracles import banded_to_dense, modal_exact_solution
from suite_configs import CONFIG_DIR, config_text


def strong_material(**kw):
    base = dict(a=scalar_fn("cubic_plus"), b=scalar_fn("constant"),
                C=1.0, V=1.0)
    base.update(kw)
    return MaterialLaw(**base)


def make_sops(N=41, delta=0.1, nu=1e-4, n_modes=6, potential=None,
              material=None):
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    mat = material or strong_material()
    pot = potential or make_potential("quadratic")
    basis = neumann_eigenbasis(mesh, mat.V, n_modes, ops=ops)
    return StrongOperators(
        ops=ops, basis=basis, material=mat, potential=pot,
        reg_W=make_W_delta(pot, delta), reg_I=make_I_delta(delta),
        params=RegParams(delta=delta, nu=nu))


# ---------------------------------------------------------------------------
# RegParams schedule
# ---------------------------------------------------------------------------

def test_schedule_satisfies_vanishing_scaling():
    ratios = [RegParams.from_schedule(n).scaling_ratio for n in range(1, 6)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] < ratios[0] / 10


def test_regparams_validation():
    with pytest.raises(ValueError):
        RegParams(delta=1.5, nu=1e-4)
    with pytest.raises(ValueError):
        RegParams(delta=0.5, nu=0.0)


# ---------------------------------------------------------------------------
# chi from omega
# ---------------------------------------------------------------------------

def test_chi_from_omega_constants_with_unit_slope():
    # graph beta(r) = r/(1-delta) has regularized derivative exactly r,
    # so constants solve 2 chi = omega
    delta = 0.25
    g = graph_quadratic(slope=1.0 / (1.0 - delta))
    sops = make_sops(delta=delta)
    sops.reg_W = regularize(g, delta)
    chi, info = chi_from_omega(sops, np.full(41, 3.0))
    assert np.allclose(chi, 1.5, atol=1e-10)
    assert info["residual"] <= 1e-9


def test_chi_from_omega_zero_gives_zero():
    sops = make_sops()
    chi, _ = chi_from_omega(sops, np.zeros(41))
    assert np.max(np.abs(chi)) <= 1e-12


def test_chi_from_omega_indicator_vs_picard_oracle():
    delta = 0.1
    pot = make_potential("indicator_box")
    sops = make_sops(N=201, delta=delta, potential=pot)
    ops = sops.ops
    omega = 2.0 * np.cos(np.pi * ops.mesh.nodes)
    chi, info = chi_from_omega(sops, omega, tol_ell=1e-12)

    # contraction fixed point: (S + W_L (1 + 1/delta)) chi
    #   = W_L (omega - W'(chi) + chi/delta)
    from scipy.linalg import solveh_banded
    A = ops.S.copy()
    A[1] += ops.w * (1.0 + 1.0 / delta)
    x = omega.copy()
    for _ in range(400):
        rhs = ops.w * (omega - sops.reg_W.value(x) + x / delta)
        x_new = solveh_banded(A, rhs)
        if np.max(np.abs(x_new - x)) < 1e-13:
            x = x_new
            break
        x = x_new
    assert np.max(np.abs(chi - x)) <= 1e-8


def test_chi_from_omega_reports_its_newton_steps(monkeypatch):
    # one SPD solve per Newton step; a converged start takes none
    calls = []

    def counting(ab, b):
        calls.append(1)
        return solve_spd_tridiag(ab, b)

    monkeypatch.setattr(sg, "solve_spd_tridiag", counting)
    sops = make_sops(potential=make_potential("smooth_double_well"))
    omega = 1.0 + 0.3 * np.cos(np.pi * sops.ops.mesh.nodes)
    chi, info = chi_from_omega(sops, omega)
    assert info["iterations"] >= 2
    assert len(calls) == info["iterations"]
    calls.clear()
    _, info = chi_from_omega(sops, omega, chi_init=chi)
    assert info["iterations"] == len(calls) == 0


def test_chi_from_omega_accepts_a_stall_only_at_round_off():
    # with tol_ell = 0 no residual but 0 meets the tolerance, so the solve
    # ends where its residual stalls at the round-off of its own terms; a
    # start away from the answer that may take no step fails
    sops = make_sops(potential=make_potential("smooth_double_well"))
    omega = 1.0 + 0.3 * np.cos(np.pi * sops.ops.mesh.nodes)
    ref, _ = chi_from_omega(sops, omega)
    chi, info = chi_from_omega(sops, omega, tol_ell=0.0)
    assert info["residual"] <= 1e-13
    assert np.max(np.abs(chi - ref)) <= 1e-9
    with pytest.raises(StageError, match="stalled after 0 Newton steps"):
        chi_from_omega(sops, omega, max_iter=0)


def test_stability_ratio_matches_inline_formula():
    # (||chi||_H2 + ||W'(chi)||) / ||omega||, as chi_from_omega once
    # computed it on every call from its last residual evaluation
    sops = make_sops(potential=make_potential("smooth_double_well"))
    ops = sops.ops
    omega = 1.0 + 0.3 * np.cos(np.pi * ops.mesh.nodes)
    chi, info = chi_from_omega(sops, omega)
    assert set(info) == {"iterations", "residual"}
    wv = sops.reg_W.eval_all(chi)[0]
    ref = ((ops.h2_norm(chi) + ops.l2_norm_lumped(wv))
           / ops.l2_norm_lumped(omega))
    s0 = stability_ratio(sops, chi, omega)
    assert s0 == ref and math.isfinite(s0) and s0 > 0
    assert stability_ratio(sops, chi, np.zeros_like(omega)) == math.inf


# ---------------------------------------------------------------------------
# chi rate
# ---------------------------------------------------------------------------

def test_chi_rate_zero_and_constant_cases():
    sops = make_sops()
    chi = np.full(41, 0.5)
    assert np.max(np.abs(chi_rate_from_omega_rate(sops, chi, np.zeros(41)))) == 0.0
    # with curvature c = W''(chi) constant: chi_t = omega_t / (1 + c)
    c = sops.reg_W.eval_all(0.5)[1]
    rate = chi_rate_from_omega_rate(sops, chi, np.full(41, 2.0))
    assert np.allclose(rate, 2.0 / (1.0 + c), atol=1e-10)


def test_chi_rate_against_dense_factorization():
    sops = make_sops(N=5, n_modes=2)
    rng = np.random.default_rng(3)
    chi = rng.uniform(0.2, 0.8, 5)
    omega_t = rng.standard_normal(5)
    rate = chi_rate_from_omega_rate(sops, chi, omega_t)
    B = banded_to_dense(sops.bsym(chi))
    ref = np.linalg.solve(B, sops.ops.w * omega_t)
    assert np.max(np.abs(rate - ref)) <= 1e-10


def test_modal_matrices_against_dense_weighted_stiffness():
    sops = make_sops(N=41, n_modes=6,
                     material=strong_material(b=scalar_fn("quadratic_floor",
                                                          floor=1.0, scale=0.5)))
    rng = np.random.default_rng(7)
    chi = rng.uniform(0.2, 1.0, 41)
    Y = sops.basis.vectors
    D, A = sops.modal_matrices(chi)
    for got, coeff, modulus in ((D, sops.material.b(chi), sops.material.V),
                                (A, sops.material.a(chi), sops.material.C)):
        S = banded_to_dense(weighted_stiffness_banded(sops.ops.mesh, coeff,
                                                      scale=modulus))
        ref = Y.T @ S @ Y
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _damping_gram(sops, chi):
    """dY^T diag(c_e/h) dY of b(chi) V, formed without the memo."""
    ops, dY = sops.ops, sops.dY
    ce = sops.material.V / ops.mesh.h * ops.element_mean(sops.material.b(chi))
    return dY.T @ (ce[:, None] * dY)


def test_modal_matrices_damping_memo_follows_nonconstant_b():
    sops = make_sops(N=41, n_modes=6,
                     material=strong_material(b=scalar_fn("quadratic_floor",
                                                          floor=1.0, scale=0.5)))
    rng = np.random.default_rng(11)
    chis = [rng.uniform(0.2, 1.0, 41) for _ in range(2)]
    for chi in chis + chis[:1]:
        D, _ = sops.modal_matrices(chi)
        assert np.array_equal(D, _damping_gram(sops, chi))
    assert not np.array_equal(*(_damping_gram(sops, c) for c in chis))


def test_modal_matrices_damping_memo_returns_fresh_copies():
    sops = make_sops(N=41, n_modes=6)      # constant b
    rng = np.random.default_rng(12)
    D, _ = sops.modal_matrices(rng.uniform(0.2, 1.0, 41))
    D[:] = 99.0
    chi = rng.uniform(0.2, 1.0, 41)
    D2, _ = sops.modal_matrices(chi)
    assert np.array_equal(D2, _damping_gram(sops, chi))


def test_modal_matrices_damping_memo_not_shared_by_replace():
    # the memo key is b(chi) alone, so a copy with another modulus V that
    # shared the memo would return the original's D
    sops = make_sops(N=41, n_modes=6)
    chi = np.full(41, 0.5)
    D, _ = sops.modal_matrices(chi)
    copy = replace(sops, material=replace(sops.material, V=2.0))
    D2, _ = copy.modal_matrices(chi)
    assert np.array_equal(D2, _damping_gram(copy, chi))
    assert np.array_equal(sops.modal_matrices(chi)[0], D)
    assert not np.array_equal(D2, D)


# ---------------------------------------------------------------------------
# Stage stepping
# ---------------------------------------------------------------------------

def _strong_config(**kw):
    defaults = dict(
        N=41, L=1.0, T=0.25, K=50, material=strong_material(),
        potential=make_potential("quadratic"),
        u0=lambda x: 0.1 * np.cos(np.pi * x), v0=0.0,
        chi0=lambda x: 0.8 + 0.1 * np.cos(np.pi * x), mode="strong",
        strong=StrongSettings(n_modes=6, delta=0.05, nu=1e-6, steps=50,
                              varpi0="slaved"))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_stationary_state_is_preserved():
    # constant chi at the minimum of a centered quadratic potential, no
    # forcing, no displacement: everything stays put
    cfg = _strong_config(
        u0=0.0, chi0=0.6,
        potential=make_potential("quadratic", {"center": 0.6}),
        strong=StrongSettings(n_modes=4, delta=0.1, nu=1e-4, steps=20,
                              varpi0=0.0, startup_steps=0))
    traj, _ = run_strong(cfg)
    for s in traj.snapshots:
        assert np.max(np.abs(s.chi - 0.6)) <= 1e-9
        assert np.max(np.abs(s.u)) <= 1e-12


def test_modal_dynamics_matches_closed_form_in_linear_regime():
    # a = b = 1 (no coupling): each mode obeys c'' + V lam c' + C lam c = 0
    mat = MaterialLaw(a=scalar_fn("constant"), b=scalar_fn("constant"),
                      C=1.0, V=1.0)
    errs = []
    for steps in (50, 100):
        cfg = _strong_config(
            material=mat, T=0.5,
            u0=lambda x: 0.05 + 0.02 * np.cos(np.pi * x)
            + 0.01 * np.cos(2 * np.pi * x),
            strong=StrongSettings(n_modes=3, delta=0.1, nu=1e-4, steps=steps,
                                  varpi0="slaved"))
        traj, _ = run_strong(cfg)
        basis = traj.extras["basis"]
        c_num = traj.final.u_modal
        err = 0.0
        c0 = traj.snapshots[0].u_modal
        for k in range(4):
            lam = basis.eigenvalues[k]
            c_exact, _ = modal_exact_solution(lam, 1.0, 1.0, c0[k], 0.0, 0.5)
            err = max(err, abs(c_num[k] - c_exact))
        errs.append(err)
    assert errs[0] <= 5e-4
    assert errs[0] / errs[1] >= 3.0     # second-order stage


def test_mean_momentum_identity_zero_forcing():
    cfg = _strong_config()
    traj, _ = run_strong(cfg)
    for t, res, scale in traj.extras["mean_identity"]:
        assert res <= 1e-9 * scale


def test_coherence_invariant_along_the_run():
    cfg = _strong_config()
    traj, _ = run_strong(cfg)
    ops = traj.ops
    reg = traj.extras["reg_W"]
    for s in traj.snapshots:
        r = (ops.stiff_matvec(s.chi) / ops.w + reg.value(s.chi)
             + s.chi - s.omega)
        assert np.sqrt(np.dot(ops.w, r * r)) <= 1e-9


def test_strong_mode_gate_rejects_robin_data():
    cfg = _strong_config(material=strong_material(gamma1=0.5))
    with pytest.raises(ValueError):
        run_strong(cfg)
    cfg2 = _strong_config(material=strong_material(C=1.0, V=2.0))
    with pytest.raises(ValueError):
        run_strong(cfg2)
    from damage_sim.forcing import BoundaryForcing, ConstantFactor
    cfg3 = _strong_config(boundary=BoundaryForcing(factor=ConstantFactor(0.2)))
    with pytest.raises(ValueError):
        run_strong(cfg3)


def test_delta_ladder_final_states_cauchy():
    finals = []
    for n in (1, 2, 3):
        p = RegParams.from_schedule(n)
        cfg = _strong_config(
            strong=StrongSettings(n_modes=6, delta=p.delta, nu=p.nu,
                                  steps=50, varpi0="slaved"))
        traj, _ = run_strong(cfg)
        s = traj.final
        finals.append(np.concatenate([s.u, s.v, s.chi]))
    d1 = np.linalg.norm(finals[1] - finals[0])
    d2 = np.linalg.norm(finals[2] - finals[1])
    assert d2 < d1


def test_nu_vanishing_monitor_decreases_along_schedule():
    vals = []
    for n in (1, 2, 3):
        p = RegParams.from_schedule(n)
        cfg = _strong_config(
            strong=StrongSettings(n_modes=6, delta=p.delta, nu=p.nu,
                                  steps=50, varpi0="slaved"))
        _, mon = run_strong(cfg)
        vals.append(max(mon.nu_omega_t_sq))
    assert vals[0] > vals[1] > vals[2]


def test_modal_truncation_convergence():
    finals = []
    for n_modes in (8, 16, 32):
        cfg = _strong_config(
            N=81,
            u0=lambda x: 0.1 * np.exp(-((x - 0.4) / 0.2) ** 2),
            strong=StrongSettings(n_modes=n_modes, delta=0.05, nu=1e-6,
                                  steps=50, varpi0="slaved"))
        traj, _ = run_strong(cfg)
        finals.append(traj.final.u)
    d1 = np.linalg.norm(finals[1] - finals[0])
    d2 = np.linalg.norm(finals[2] - finals[1])
    assert d2 < d1


def test_horizon_detection_is_reported_not_raised():
    cfg = _strong_config(
        strong=StrongSettings(n_modes=6, delta=0.05, nu=1e-6, steps=20,
                              varpi0="slaved", psi_max=1e-12))
    traj, mon = run_strong(cfg)
    assert mon.horizon_hit
    assert mon.horizon_time is not None
    assert len(traj) >= 1
    assert mon.to_dict()["verdict"] == "horizon"


def test_blowup_monitor_reports_exploratory_formula():
    cfg = _strong_config()
    _, mon = run_strong(cfg)
    assert mon.growth_beta == pytest.approx(16.0)   # 4*rho + 12 with rho = 1
    assert mon.horizon_formula is not None


def test_stage_failure_carries_failed_step_and_partial_trajectory(monkeypatch):
    cfg = _strong_config(strong=StrongSettings(n_modes=6, delta=0.05, nu=1e-6,
                                               steps=10, varpi0="slaved"))
    tau = cfg.T / 10
    real = sg._stage_solve

    def failing(sops, state, dt, *args, **kw):
        if state.t >= 2.0 * tau - 1e-12:        # every stage of step 3 fails
            raise StageError("injected stage failure")
        return real(sops, state, dt, *args, **kw)

    monkeypatch.setattr(sg, "_stage_solve", failing)
    with pytest.raises(StageError) as info:
        run_strong(cfg)
    assert info.value.failed_step == 3
    traj = info.value.partial_trajectory
    assert traj.mode == "strong"
    assert len(traj.step_reports) == 2
    assert traj.times == pytest.approx([0.0, tau, 2.0 * tau])


class _JitteredYosida:
    """reg_I whose value moves by 1e-6 between calls, so the chi_t Newton
    iteration cannot meet its tolerance."""

    def __init__(self, reg):
        self.reg = reg
        self.rng = np.random.default_rng(0)

    def eval_all(self, x):
        v, d1, d2 = self.reg.eval_all(x)
        return v + 1e-6 * self.rng.standard_normal(np.shape(x)), d1, d2

    def value(self, x):
        return self.eval_all(x)[0]


def test_chi_t_newton_failure_raises_stage_error():
    sops = make_sops(delta=0.05, nu=1e-6)
    sops = replace(sops, reg_I=_JitteredYosida(sops.reg_I))
    N, n1 = sops.ops.mesh.N, sops.basis.vectors.shape[1]
    chi = np.full(N, 0.8)
    state = sg.SpectralState(t=0.0, c=np.zeros(n1), cdot=np.zeros(n1),
                             omega=sops.omega_of_chi(chi),
                             omega_t=np.full(N, -0.1), chi=chi,
                             chi_t=np.zeros(N))
    with pytest.raises(StageError, match="chi_t Newton did not converge"):
        sg._stage_solve(sops, state, 1e-3, np.zeros(n1), 1e-8)


def test_chi_t_newton_stops_at_round_off(monkeypatch):
    # acceptance criterion 11's first rung (delta = 0.5, nu = 0.0625, N = 65):
    # its residuals stall at the round-off of coeff B x, above 1e-13, which
    # must end the iteration instead of running it to the cap of 60
    real = sg._chi_t_newton
    counts = []

    def counting(*args, **kw):
        x, its = real(*args, **kw)
        counts.append(its)
        return x, its

    monkeypatch.setattr(sg, "_chi_t_newton", counting)
    p = RegParams.from_schedule(1)
    assert (p.delta, p.nu) == (0.5, 0.0625)
    run_strong(_strong_config(
        N=65, T=0.5, K=100,
        strong=StrongSettings(n_modes=10, delta=p.delta, nu=p.nu, steps=100,
                              varpi0="slaved")))
    assert counts and max(counts) < 60


def _strong_demo(overrides):
    text = config_text("strong_demo")
    for old, new in overrides:
        assert old in text
        text = text.replace(old, new)
    return build_scenario(parse_config_text(text))


@pytest.mark.parametrize("overrides", [
    [("time.T = 0.5", "time.T = 0.05"), ("strong.steps = 100", "strong.steps = 10")],
    [('potential.name = "quadratic"',
      'potential.name = "logarithmic"\npotential.c1 = 1.0'),
     ("time.T = 0.5", "time.T = 0.04"), ("strong.steps = 100", "strong.steps = 8")],
], ids=["strong_demo", "strong_log"])
def test_no_evaluation_repeats_the_previous_argument(monkeypatch, overrides):
    last, repeats, calls = {}, [], [0]
    raw = RegularizedFunction._raw_all

    def recording(self, xs):
        key = (xs.shape, xs.tobytes())
        if last.get(id(self)) == key:
            repeats.append(self.graph.name)
        last[id(self)] = key
        calls[0] += 1
        return raw(self, xs)

    monkeypatch.setattr(RegularizedFunction, "_raw_all", recording)
    run_strong(_strong_demo(overrides))
    assert calls[0] > 100
    assert repeats == []


def test_strong_demo_fine_mesh_completes():
    # at N = 2049 the coherence solve stalls at the round-off of S chi / w,
    # above tol_ell (1 + max|omega|), and accepts the iterate there
    _, monitor = run_strong(_strong_demo([("mesh.N = 101", "mesh.N = 2049")]))
    assert monitor.to_dict()["verdict"] == "completed"


def test_h2_norm_is_called_only_when_recording(monkeypatch):
    # H2 norms feed the blow-up monitor at each recorded snapshot (the H3
    # norm of v, from the same Laplacian, feeds its time integral); the
    # stage iterations and the coherence solves compute none
    real = Operators.h2_norm
    callers = []

    def spy(self, z, lap=None):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == real.__code__.co_filename:
            frame = frame.f_back        # h2_h3_norms calls h2_norm
        callers.append((frame.f_code.co_filename, frame.f_code.co_name))
        return real(self, z, lap)

    monkeypatch.setattr(Operators, "h2_norm", spy)
    traj, _ = run_strong(_strong_demo([("strong.steps = 100",
                                        "strong.steps = 10")]))
    assert len(traj.step_reports) == 10
    assert set(callers) == {(sg.__file__, "record")}


def test_each_record_forms_two_laplacians(monkeypatch):
    # 11 records of a 10-step run: the H2 norms of v and chi, each from one
    # discrete Laplacian, with the H3 norm of v reusing the Laplacian of v
    counts = {"h2_norm": 0, "laplacian_h": 0}
    for name in counts:
        def spy(self, *args, _real=getattr(Operators, name), _name=name):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(Operators, name, spy)
    traj, monitor = run_strong(_strong_demo([("strong.steps = 100",
                                              "strong.steps = 10")]))
    assert len(traj) == len(monitor.times) == 11
    assert counts == {"h2_norm": 22, "laplacian_h": 22}


def test_predictor_start_iteration_counts(tmp_path):
    # every step reports its stage outer iterations and chi_from_omega
    # Newton iterations; started from chi + dt chi_t, strong_demo takes 297
    # outer iterations (362 from chi) and the compare_demo surrogate 805
    # (1,206 from chi)
    out = tmp_path / "strong_demo"
    assert run_scenario(str(CONFIG_DIR / "strong_demo.cfg"), "strong",
                        str(out)) == 0
    demo = json.loads((out / "run_report.json").read_text())["step_reports"]
    cfg, flat = load_scenario(str(CONFIG_DIR / "compare_demo.cfg"))
    surrogate, _ = run_strong(_refined(cfg, flat))
    compare = [r.to_dict() for r in surrogate.step_reports]
    for reports, bound in ((demo, 320), (compare, 880)):
        assert all(r["inner_iterations"] >= 1 and r["newton_iterations"] >= 1
                   for r in reports)
        assert sum(r["inner_iterations"] for r in reports) <= bound
