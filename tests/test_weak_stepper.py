import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from damage_sim.config import build_scenario, parse_config_text
from damage_sim.discretization import (
    assemble_operators,
    banded_quadform,
    build_mesh,
)
from damage_sim.forcing import (
    BoundaryForcing,
    CallableFactor,
    ConstantFactor,
    Forcing,
    LinearFactor,
    SineFactor,
    TableFactor,
    local_time_means,
    point_values,
)
from damage_sim.model import (
    MaterialLaw,
    ScenarioConfig,
    make_potential,
    scalar_fn,
)
from damage_sim.weak_stepper import (
    apriori_monitors,
    assemble_damage_subproblem,
    damage_step,
    damage_tau_max,
    momentum_step,
    nonsmooth_vi_residual,
    run_weak,
    truncation_consistency_check,
)

from oracles import dense_objective, kkt_enumeration
from suite_configs import standard_suite


def material(a="quadratic_plus", **kw):
    return MaterialLaw(a=scalar_fn(a), b=scalar_fn("constant"), **kw)


# ---------------------------------------------------------------------------
# Local time means
# ---------------------------------------------------------------------------

def _volume_means(forcing, K, tau, x_nodes):
    means = local_time_means(forcing, BoundaryForcing.zero(), K, tau, x_nodes)
    return means.rows(np.arange(K))[0]


def test_local_means_of_linear_time_factor():
    f = Forcing(profile=None, factor=CallableFactor(lambda t: t))
    means = _volume_means(f, 2, 0.5, np.array([0.0, 1.0]))
    assert np.allclose(means[:, 0], [0.25, 0.75], atol=1e-12)


def test_local_means_of_constant():
    f = Forcing(profile=None, factor=ConstantFactor(3.0))
    means = _volume_means(f, 5, 0.2, np.array([0.0, 0.5, 1.0]))
    assert means.shape == (5, 3)
    assert np.allclose(means, 3.0)


def test_local_means_of_sine_against_quadrature_oracle():
    fn = lambda t: math.sin(2 * math.pi * t)
    f = Forcing(profile=None, factor=CallableFactor(fn))
    tau = 0.25
    means = _volume_means(f, 4, tau, np.array([0.0, 1.0]))
    for k in range(4):
        ref, _ = quad(fn, k * tau, (k + 1) * tau, epsabs=1e-14)
        assert means[k, 0] == pytest.approx(ref / tau, abs=1e-12)


@pytest.mark.parametrize("factor", [
    TableFactor(np.array([0.0, 0.3, 1.0]), np.array([1.0, -2.0, 0.5])),
    CallableFactor(lambda t: math.sin(2 * math.pi * t) + 0.25 * t)])
def test_sampled_rows_are_profile_times_factor_bitwise(factor):
    x = np.linspace(0.0, 1.0, 17)
    # the cosine mix 0 + cos(pi x) + 0.5 cos(2 pi x) of strong_damage.cfg
    profile = standard_suite()["strong_damage"].forcing.profile
    f = Forcing(profile=profile, factor=factor)
    g = BoundaryForcing(factor=factor, weights=(0.7, -1.3))
    K, tau = 8, 0.125
    weights = np.array([0.7, -1.3])
    means = local_time_means(f, g, K, tau, x)
    F, G = means.rows(np.arange(K))
    for k in range(1, K + 1):
        mean = factor.mean((k - 1) * tau, k * tau)
        want = f.profile_on(x) * mean
        f_row, g_row = means.rows(k - 1)
        assert np.array_equal(F[k - 1], want) and np.array_equal(f_row, want)
        assert np.array_equal(G[k - 1], weights * mean)
        assert np.array_equal(g_row, weights * mean)
    times = np.array([0.0, 0.05, 0.3, 0.71, 1.0])
    values = point_values(f, g, times, x)
    F, G = values.rows(slice(0, times.size))
    for j, t in enumerate(times):
        f_row, g_row = values.rows(j)
        assert np.array_equal(F[j], f.at(t, x)) and np.array_equal(f_row, F[j])
        assert np.array_equal(G[j], weights * factor.at(t))
        assert np.array_equal(g_row, G[j])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("tau", [1e-6, 1.0 / 400, 0.25])
@pytest.mark.parametrize("freq", [0.0, 0.5, 1.0, 3.0])
def test_sine_factor_means_against_quadrature_oracle(tau, freq):
    # the oracle integrates the factor's own point values to round-off (quad
    # warns that it cannot go below it).  Both forms round the phase
    # 2 pi freq t by up to one unit in its last place, hence the eps |omega| t1
    # term: the two differ by up to 1.3e-14 |a| at freq 3 and t near 9
    amp = -1.7
    factor = SineFactor(amp, freq)
    omega = 2.0 * math.pi * freq
    for t0 in np.linspace(0.0, 10.0 - tau, 23):
        t1 = t0 + tau
        ref, _ = quad(factor.at, t0, t1, epsabs=0.0, epsrel=1e-13)
        bound = (4e-15 + np.finfo(float).eps * omega * t1) * abs(amp)
        assert abs(factor.mean(t0, t1) - ref / (t1 - t0)) <= bound


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("tau", [1e-6, 1.0 / 400, 0.25])
def test_linear_factor_means_against_quadrature_oracle(tau):
    factor = LinearFactor(-0.6)
    for t0 in np.linspace(0.0, 10.0 - tau, 23):
        t1 = t0 + tau
        ref, _ = quad(factor.at, t0, t1, epsabs=0.0, epsrel=1e-13)
        assert abs(factor.mean(t0, t1) - ref / (t1 - t0)) <= 4e-15 * 0.6 * t1


def test_preset_factors_match_the_old_callables_bitwise():
    # point values keep the expressions of the lambdas they replace
    ts = np.concatenate([np.linspace(0.0, 10.0, 1001), [1e-9, 0.1, 1.0 / 3]])
    for amp, freq in [(0.5, 1.0), (-1.7, 3.0), (2.0, 0.5), (1.0, 0.0)]:
        old = lambda t, a=amp, f=freq: a * math.sin(2.0 * math.pi * f * t)
        assert all(SineFactor(amp, freq).at(t) == old(t) for t in ts)
    assert all(LinearFactor(-0.6).at(t) == -0.6 * t for t in ts)


@pytest.mark.parametrize("factor", [SineFactor(0.5, 3.0), LinearFactor(2.0)])
def test_preset_factor_means_reject_empty_intervals(factor):
    for t0, t1 in [(0.5, 0.5), (0.5, 0.25)]:
        with pytest.raises(ValueError, match="empty interval"):
            factor.mean(t0, t1)


def test_time_presets_build_closed_form_factors():
    text = """
mesh.N = 11
time.T = 1.0
time.K = 10
material.a = "quadratic_plus"
potential.name = "quadratic"
initial.chi0 = "constant"
initial.chi0_value = 0.9
forcing.kind = "sin_t"
forcing.amplitude = 0.5
forcing.freq = 3.0
boundary.kind = "linear_t"
boundary.slope = -2.0
"""
    cfg = build_scenario(parse_config_text(text))
    assert cfg.forcing.factor == SineFactor(0.5, 3.0)
    assert cfg.boundary.factor == LinearFactor(-2.0)
    defaults = build_scenario(parse_config_text(
        text.replace("forcing.amplitude = 0.5\nforcing.freq = 3.0\n", "")
        .replace("boundary.slope = -2.0\n", "")))
    assert defaults.forcing.factor == SineFactor(1.0, 1.0)
    assert defaults.boundary.factor == LinearFactor(1.0)


def test_table_factor_means_are_exact():
    table = TableFactor(np.array([0.0, 0.3, 1.0]), np.array([1.0, 2.0, 0.0]))
    # exact integral of the piecewise-linear interpolant on [0.1, 0.9]
    ref, _ = quad(lambda t: np.interp(t, [0.0, 0.3, 1.0], [1.0, 2.0, 0.0]),
                  0.1, 0.9, points=[0.3], epsabs=1e-14)
    assert table.mean(0.1, 0.9) == pytest.approx(ref / 0.8, abs=1e-13)


# ---------------------------------------------------------------------------
# Damage step
# ---------------------------------------------------------------------------

def _make_sub(ops, mat, pot, chi_prev, load, tau):
    sub = assemble_damage_subproblem(ops, mat, pot, np.zeros(ops.mesh.N),
                                     chi_prev, tau)
    sub.load = np.asarray(load, dtype=float)
    return sub


def test_damage_step_constant_state_stays_on_active_constraint():
    # zero load, Wbreve = 0, ell > 0: the drift pushes chi upward, so the
    # obstacle is active everywhere and chi^k = chi^{k-1}
    ops = assemble_operators(build_mesh(9, 1.0))
    mat = material()
    pot = make_potential("indicator_box", {"ell": 1.0})
    chi_prev = np.full(9, 0.6)
    sub = assemble_damage_subproblem(ops, mat, pot, np.zeros(9), chi_prev, 0.05)
    chi, rep = damage_step(sub)
    assert np.allclose(chi, chi_prev, atol=1e-12)
    assert rep.kkt_residual <= 1e-10


def test_damage_step_centered_quadratic_is_stationary():
    # ell = 0, a' = 0, Wbreve centered at the current state: nothing moves
    ops = assemble_operators(build_mesh(9, 1.0))
    mat = material("constant")
    pot = make_potential("quadratic", {"center": 0.7})
    chi_prev = np.full(9, 0.7)
    sub = assemble_damage_subproblem(ops, mat, pot, np.zeros(9), chi_prev, 0.1)
    chi, _ = damage_step(sub)
    assert np.allclose(chi, chi_prev, atol=1e-11)


def test_damage_step_matches_spec_worked_example():
    # 3 nodes, tau = 0.1, chi_prev = (1, .8, .6), load = (0, 2, 5), ell = 1,
    # quadratic Wbreve, affine elastic coupling: 8 active sets enumerated
    ops = assemble_operators(build_mesh(3, 1.0))
    mat = material("identity")
    pot = make_potential("quadratic", {"ell": 1.0})
    chi_prev = np.array([1.0, 0.8, 0.6])
    sub = _make_sub(ops, mat, pot, chi_prev, [0.0, 2.0, 5.0], 0.1)
    chi, rep = damage_step(sub)
    ref = kkt_enumeration(sub, slope=1.0, center=0.0, a_kind="linear")
    assert np.max(np.abs(chi - ref)) <= 1e-9
    assert dense_objective(sub, chi) <= dense_objective(sub, chi_prev) + 1e-14


def test_damage_step_objective_monotone_and_feasible():
    ops = assemble_operators(build_mesh(21, 1.0))
    mat = material()
    pot = make_potential("quadratic")
    rng = np.random.default_rng(2)
    u_prev = 0.3 * np.sin(2 * np.pi * ops.mesh.nodes)
    chi_prev = np.clip(0.7 + 0.2 * rng.standard_normal(21), 0.05, 1.0)
    sub = assemble_damage_subproblem(ops, mat, pot, u_prev, chi_prev, 0.02)
    chi, rep = damage_step(sub)
    assert np.all(chi <= chi_prev + 1e-12)
    assert rep.objective_decrease >= -1e-12


def test_damage_tau_max_guard():
    pot = make_potential("quadratic")           # minimal section 0 at anchor
    assert damage_tau_max(pot) == math.inf
    pot2 = make_potential("logarithmic", {"c1": 1.0, "c2": 3.0})
    assert damage_tau_max(pot2) == pytest.approx(1.0 / (2.0 * 9.0))


def test_inner_solver_against_enumeration_random_qp():
    rng = np.random.default_rng(42)
    mat = material("identity")
    pot = make_potential("quadratic", {"ell": 0.5})
    for trial in range(30):
        n = int(rng.integers(2, 9))
        ops = assemble_operators(build_mesh(max(n, 3), 1.0))
        if n != ops.mesh.N:
            ops = assemble_operators(build_mesh(n, 1.0)) if n >= 3 else None
        if ops is None:
            continue
        chi_prev = rng.uniform(0.2, 1.0, n)
        load = rng.uniform(0.0, 4.0, n)
        sub = _make_sub(ops, mat, pot, chi_prev, load, 0.1)
        chi, _ = damage_step(sub)
        ref = kkt_enumeration(sub, slope=1.0, center=0.0, a_kind="linear")
        assert np.max(np.abs(chi - ref)) <= 1e-8


@pytest.fixture(scope="module")
def suite_reports():
    return {name: run_weak(cfg).step_reports
            for name, cfg in standard_suite().items()}


def newton_total(reports):
    return sum(r.newton_iterations for r in reports)


def test_damage_step_newton_alone_on_every_suite_run(suite_reports):
    # the active-set Newton iteration finishes every step; FISTA never runs
    for name, reports in suite_reports.items():
        assert len(reports) == 400, name
        assert all(r.inner_iterations == 0 for r in reports), name
        assert all(r.newton_iterations >= 1 for r in reports), name
    # started from clip(chi_prev), where a receding front moves about one
    # node per side and Newton step, these runs take 1928 (logarithmic) and
    # 482 (indicator_box) Newton steps
    assert newton_total(suite_reports["logarithmic"]) <= 700
    assert newton_total(suite_reports["indicator_box"]) <= 482


def test_predictor_start_on_fine_mesh_logarithmic_run():
    # started from clip(chi_prev) this run takes 6512 Newton steps
    cfg = replace(standard_suite()["logarithmic"], N=801)
    reports = run_weak(cfg).step_reports
    assert all(r.inner_iterations == 0 for r in reports)
    assert newton_total(reports) <= 1500


def test_damage_step_default_start_is_chi_prev():
    # a seeded subproblem with a damage front; the digest pins the minimizer
    # reached from chi^{k-1} bit for bit
    ops = assemble_operators(build_mesh(41, 1.0))
    pot = make_potential("indicator_box", {"ell": 1.0})
    rng = np.random.default_rng(7)
    x = ops.mesh.nodes
    u_prev = 1.5 * np.exp(-((x - rng.uniform(0.3, 0.7)) / 0.15) ** 2)
    chi_prev = np.clip(0.9 + 0.05 * rng.standard_normal(41), 0.0, 1.0)
    sub = assemble_damage_subproblem(ops, material(), pot, u_prev, chi_prev,
                                     0.0025)
    chi, rep = damage_step(sub)
    assert rep.newton_iterations == 3 and rep.active_count == 7
    assert hashlib.sha256(chi.tobytes()).hexdigest() == (
        "66c0a647042c2d0bf1ecc2a4e5ce494b6afcbbb86c432d95ca35b91c021d4a97")
    chi_same, _ = damage_step(sub, start=chi_prev)
    assert np.array_equal(chi_same, chi)
    # any feasible start reaches the same minimizer; the decrease is still
    # measured from chi^{k-1}
    chi_far, rep_far = damage_step(sub, start=np.full(41, 0.5))
    assert np.max(np.abs(chi_far - chi)) <= 1e-10
    assert rep_far.objective_decrease == pytest.approx(rep.objective_decrease,
                                                       abs=1e-12)


def test_damage_step_fista_fallback_matches_newton_path():
    # a damage front under a load bump needs many Newton steps; capping the
    # polish at one step forces the FISTA fallback, which must reach the
    # same minimizer
    ops = assemble_operators(build_mesh(101, 1.0))
    pot = make_potential("indicator_box", {"ell": 1.0})
    x = ops.mesh.nodes
    u_prev = 2.0 * np.exp(-((x - 0.4) / 0.12) ** 2)
    sub = assemble_damage_subproblem(ops, material(), pot, u_prev,
                                     np.ones(101), 0.0025)
    chi, rep = damage_step(sub)
    assert rep.inner_iterations == 0 and rep.newton_iterations > 1
    chi_fb, rep_fb = damage_step(sub, max_polish=1)
    assert rep_fb.inner_iterations > 0
    assert rep_fb.kkt_residual <= 1e-10
    assert np.max(np.abs(chi_fb - chi)) <= 1e-10
    assert np.min(chi) < 0.9          # the front is really there


# ---------------------------------------------------------------------------
# Momentum step
# ---------------------------------------------------------------------------

def test_momentum_zero_data_gives_zero():
    ops = assemble_operators(build_mesh(11, 1.0))
    mat = material()
    z = np.zeros(11)
    u, res = momentum_step(ops, mat, np.full(11, 0.8), z, z, 0.05, z,
                           np.zeros(2))
    assert np.max(np.abs(u)) == 0.0
    assert res <= 1e-14


def test_solves_reject_non_finite_data():
    # the tridiagonal solves check their input as scipy's wrappers did
    ops = assemble_operators(build_mesh(11, 1.0))
    mat = material()
    pot = make_potential("quadratic")
    u_prev = np.zeros(11)
    u_prev[4] = np.nan
    sub = assemble_damage_subproblem(ops, mat, pot, u_prev, np.full(11, 0.8),
                                     0.05)
    with pytest.raises(ValueError):
        damage_step(sub)
    z = np.zeros(11)
    fbar = np.zeros(11)
    fbar[3] = np.nan
    with pytest.raises(ValueError):
        momentum_step(ops, mat, np.full(11, 0.8), z, z, 0.05, fbar,
                      np.zeros(2))


def test_momentum_against_dense_oracle_5_nodes():
    # a = 0, b = 1, V = 1: a viscous wave step checked against a dense solve
    # with independently assembled matrices
    N, L, tau = 5, 1.0, 0.05
    mesh = build_mesh(N, L)
    ops = assemble_operators(mesh)
    mat = MaterialLaw(a=scalar_fn("constant", value=0.0),
                      b=scalar_fn("constant"), V=1.0, C=1.0)
    rng = np.random.default_rng(8)
    u1 = rng.standard_normal(N)
    u2 = rng.standard_normal(N)
    fbar = rng.standard_normal(N)
    chi = np.full(N, 0.5)
    u, _ = momentum_step(ops, mat, chi, u1, u2, tau, fbar, np.zeros(2))

    h = mesh.h
    M = np.zeros((N, N))
    Sv = np.zeros((N, N))
    for e in range(N - 1):
        M[np.ix_([e, e + 1], [e, e + 1])] += h / 6.0 * np.array([[2, 1], [1, 2]])
        Sv[np.ix_([e, e + 1], [e, e + 1])] += 1.0 / h * np.array([[1, -1], [-1, 1]])
    A = M / tau**2 + Sv / tau
    rhs = M @ (2 * u1 - u2) / tau**2 + Sv @ u1 / tau + M @ fbar
    ref = np.linalg.solve(A, rhs)
    assert np.max(np.abs(u - ref)) <= 1e-10


def test_momentum_rigid_translation_mean_identity():
    # constant test function: M-weighted mean obeys the discrete identity
    N, tau = 21, 0.02
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    mat = material()
    rng = np.random.default_rng(4)
    u1 = rng.standard_normal(N)
    u2 = rng.standard_normal(N)
    fbar = rng.standard_normal(N)
    chi = np.full(N, 0.7)
    u, _ = momentum_step(ops, mat, chi, u1, u2, tau, fbar, np.zeros(2))
    ones = np.ones(N)
    lhs = banded_quadform(ops.M, ones, u - 2 * u1 + u2) / tau**2
    rhs = banded_quadform(ops.M, ones, fbar)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


def test_momentum_robin_terms_enter_scaled_by_gamma0():
    N, tau = 9, 0.05
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    rng = np.random.default_rng(12)
    u1, u2 = rng.standard_normal(N), rng.standard_normal(N)
    chi = np.full(N, 0.5)
    m1 = material(gamma0=1.0, gamma1=0.6, gamma2=0.8)
    m2 = material(gamma0=2.0, gamma1=1.2, gamma2=1.6)
    g = np.array([0.3, -0.2])
    ua, _ = momentum_step(ops, m1, chi, u1, u2, tau, np.zeros(N), g)
    ub, _ = momentum_step(ops, m2, chi, u1, u2, tau, np.zeros(N), 2.0 * g)
    assert np.allclose(ua, ub, atol=1e-12)


# ---------------------------------------------------------------------------
# run_weak
# ---------------------------------------------------------------------------

def _basic_config(**kw):
    defaults = dict(N=9, L=1.0, T=0.1, K=2, material=material(),
                    potential=make_potential("quadratic"), u0=0.0, v0=0.0,
                    chi0=0.9, mode="weak")
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_run_weak_single_step_matches_hand_assembly():
    cfg = _basic_config(N=3, K=1, T=0.1,
                        u0=lambda x: 0.2 * np.cos(np.pi * x),
                        v0=lambda x: 0.1 * np.ones_like(x))
    traj = run_weak(cfg)
    mesh = traj.mesh
    ops = traj.ops
    tau = 0.1
    u0, v0, chi0 = cfg.initial_fields(mesh.nodes)
    sub = assemble_damage_subproblem(ops, cfg.material, cfg.potential, u0,
                                     chi0, tau)
    chi1, _ = damage_step(sub)
    u_prev2 = u0 - tau * v0
    u1, _ = momentum_step(ops, cfg.material, chi1, u0, u_prev2, tau,
                          np.zeros(3), np.zeros(2))
    assert np.allclose(traj.final.chi, chi1, atol=1e-12)
    assert np.allclose(traj.final.u, u1, atol=1e-12)


def test_run_weak_stationary_chi_one():
    # chi0 = 1, a = max(r,0)^2, zero load, Wbreve centered at 1, ell = 0:
    # W'(1) = 0 and nothing drives damage
    cfg = _basic_config(K=5, T=0.5, chi0=1.0,
                        potential=make_potential("quadratic", {"center": 1.0}))
    traj = run_weak(cfg)
    for s in traj.snapshots:
        assert np.allclose(s.chi, 1.0, atol=1e-11)


def test_run_weak_tau_refinement_self_convergence():
    def run(K):
        cfg = _basic_config(
            N=41, T=0.5, K=K,
            u0=lambda x: 0.2 * np.cos(np.pi * x),
            chi0=lambda x: 0.8 + 0.1 * np.cos(np.pi * x))
        return run_weak(cfg)

    t1, t2, t4 = run(25), run(50), run(100)
    ops = t1.ops

    def dist(a, b):
        return math.sqrt(banded_quadform(ops.M, a.final.u - b.final.u)
                         + banded_quadform(ops.M, a.final.chi - b.final.chi))

    d12, d24 = dist(t1, t2), dist(t2, t4)
    assert d24 <= 0.65 * d12      # O(tau) self-convergence


def test_run_weak_unidirectional_and_box_confined():
    cfg = _basic_config(N=31, K=40, T=0.4,
                        u0=lambda x: 0.4 * np.cos(np.pi * x),
                        chi0=lambda x: 0.7 + 0.25 * np.cos(2 * np.pi * x))
    traj = run_weak(cfg)
    for k in range(1, len(traj)):
        assert np.all(traj.snapshots[k].chi
                      <= traj.snapshots[k - 1].chi + 1e-10)
    for s in traj.snapshots:
        assert np.min(s.chi) >= -1e-12 and np.max(s.chi) <= 1.0 + 1e-12


def test_run_weak_rejects_bad_configs():
    with pytest.raises(ValueError):
        run_weak(_basic_config(chi0=1.5))
    with pytest.raises(ValueError):
        run_weak(_basic_config(K=0))
    with pytest.raises(ValueError):
        run_weak(_basic_config(material=material(gamma0=0.0, gamma2=1.0)))


# ---------------------------------------------------------------------------
# Post-run checks
# ---------------------------------------------------------------------------

def test_truncation_consistency_on_valid_run():
    cfg = _basic_config(N=21, K=10, T=0.2,
                        u0=lambda x: 0.3 * np.cos(np.pi * x))
    traj = run_weak(cfg)
    rep = truncation_consistency_check(traj)
    assert not rep.skipped
    assert rep.passed
    assert rep.worst_negative >= -1e-12


def test_truncation_check_flags_artificial_negative():
    cfg = _basic_config(N=21, K=4, T=0.2)
    traj = run_weak(cfg)
    traj.snapshots[2].chi[5] = -0.05
    rep = truncation_consistency_check(traj)
    assert not rep.passed


def test_truncation_check_skips_unsuitable_degradation_shape():
    cfg = _basic_config(material=material("identity"))
    traj = run_weak(cfg)
    rep = truncation_consistency_check(traj)
    assert rep.skipped and rep.passed
    assert "shape" in rep.warning


def test_nonsmooth_vi_zero_test_function():
    cfg = _basic_config(N=15, K=5, T=0.2,
                        potential=make_potential("indicator_box", {"ell": 1.0}))
    traj = run_weak(cfg)
    res = nonsmooth_vi_residual(traj, [np.zeros(15)])
    assert np.allclose(res, 0.0, atol=1e-15)


def test_nonsmooth_vi_on_indicator_run_nonnegative():
    cfg = _basic_config(
        N=21, K=20, T=0.4,
        u0=lambda x: 0.5 * np.exp(-((x - 0.5) / 0.15) ** 2),
        potential=make_potential("indicator_box", {"ell": 1.0}), chi0=1.0)
    traj = run_weak(cfg)
    bank = [np.full(21, -1e-3), -1e-3 * traj.final.chi, np.zeros(21)]
    res = nonsmooth_vi_residual(traj, bank)
    assert np.min(res) >= -1e-8


def test_nonsmooth_vi_detects_monotonicity_violation():
    cfg = _basic_config(N=15, K=5, T=0.2,
                        potential=make_potential("indicator_box", {"ell": 1.0}))
    traj = run_weak(cfg)
    # inject an upward chi jump (staying inside [0, 1]): chi_t > 0 at one step
    traj.snapshots[3].chi = traj.snapshots[3].chi + 0.05
    traj.snapshots[3].chi_t = (traj.snapshots[3].chi
                               - traj.snapshots[2].chi) / traj.tau
    bank = [np.full(15, -0.04)]
    res = nonsmooth_vi_residual(traj, bank)
    assert np.min(res) < -1e-4


def test_nonsmooth_vi_rejects_positive_test_function():
    cfg = _basic_config(K=1)
    traj = run_weak(cfg)
    with pytest.raises(ValueError):
        nonsmooth_vi_residual(traj, [np.full(9, 0.1)])


def test_apriori_monitors_bounded_across_tau_ladder():
    vals = []
    for K in (10, 20, 40):
        cfg = _basic_config(N=31, T=0.4, K=K,
                            u0=lambda x: 0.3 * np.cos(np.pi * x))
        vals.append(apriori_monitors(run_weak(cfg)))
    for key in vals[0]:
        series = [v[key] for v in vals]
        assert max(series) <= 10.0 * (min(series) + 1e-12) + 1.0
