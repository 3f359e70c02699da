import math

import numpy as np
import pytest

from damage_sim.config import build_scenario, parse_config_text
from damage_sim.diagnostics import (
    calibrate_c_rei,
    discrete_edi_check,
    dissipation,
    energy,
    kappa,
    one_sided_vi_residual,
    rei_check,
    relative_dissipation,
    relative_energy,
    strong_energy_balance_residual,
    uedi_check,
)
from damage_sim.discretization import assemble_operators, build_mesh
from damage_sim.forcing import CallableFactor, Forcing
from damage_sim.model import (
    MaterialLaw,
    ScenarioConfig,
    StrongSettings,
    make_potential,
    scalar_fn,
)
from damage_sim.strong_galerkin import run_strong
from damage_sim.trajectory import Snapshot
from damage_sim.weak_stepper import run_weak

from oracles import (
    dissipation_per_snapshot,
    edi_per_snapshot,
    energy_per_snapshot,
    rei_slack_quadratic,
    simpson_energy,
    uedi_per_snapshot,
)
from suite_configs import config_text, standard_suite


def material(a="quadratic_plus", **kw):
    return MaterialLaw(a=scalar_fn(a), b=scalar_fn("constant"), **kw)


def snap(N, t=0.0, u=None, v=None, chi=None, chi_t=None):
    z = np.zeros(N)
    return Snapshot(t=t, u=z if u is None else np.asarray(u, float),
                    v=z if v is None else np.asarray(v, float),
                    chi=z if chi is None else np.asarray(chi, float),
                    chi_t=z.copy() if chi_t is None else np.asarray(chi_t, float))


# ---------------------------------------------------------------------------
# Energy and dissipation examples
# ---------------------------------------------------------------------------

def test_energy_pure_potential_term():
    # u = v = 0, chi = 0.5, W(r) = r^2/2, gamma2 = 0, L = 1 -> E = 0.125
    N = 11
    ops = assemble_operators(build_mesh(N, 1.0))
    mat = material()
    pot = make_potential("quadratic")
    s = snap(N, chi=np.full(N, 0.5))
    assert energy(s, mat, pot, ops) == pytest.approx(0.125, abs=1e-14)


def test_energy_pure_kinetic_term():
    N, L = 9, 2.0
    ops = assemble_operators(build_mesh(N, L))
    mat = material()
    pot = make_potential("quadratic")
    s = snap(N, v=np.ones(N))
    assert energy(s, mat, pot, ops) == pytest.approx(0.5 * L, abs=1e-13)


def test_energy_against_simpson_oracle_on_5_nodes():
    N = 5
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    mat = material(gamma2=0.7)
    pot = make_potential("quadratic", {"ell": 0.5})
    rng = np.random.default_rng(17)
    s = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
             chi=rng.uniform(0.1, 0.9, N))
    ref = simpson_energy(mesh.nodes, s.u, s.v, s.chi, mat, pot,
                         gamma2_eff=mat.gamma2_eff)
    assert energy(s, mat, pot, ops) == pytest.approx(ref, abs=1e-9)


def test_energy_rejects_chi_outside_domain():
    N = 5
    ops = assemble_operators(build_mesh(N, 1.0))
    pot = make_potential("logarithmic", {"c1": 1.0})
    s = snap(N, chi=np.full(N, 1.5))
    with pytest.raises(ValueError):
        energy(s, material(), pot, ops)


def test_dissipation_zero_rates():
    N = 7
    ops = assemble_operators(build_mesh(N, 1.0))
    s = snap(N, chi=np.full(N, 0.5))
    d = dissipation(s, material(), ops)
    assert d.value == 0.0 and d.unidirectional


def test_dissipation_flags_positive_chi_t():
    N = 7
    ops = assemble_operators(build_mesh(N, 1.0))
    ct = np.zeros(N)
    ct[3] = 0.1
    s = snap(N, chi=np.full(N, 0.5), chi_t=ct)
    d = dissipation(s, material(), ops)
    assert not d.unidirectional


def test_dissipation_viscous_term_value():
    # b = 2, V = 1, u_t = x on (0,1), chi_t = 0 -> 2 int 1 dx = 2
    N = 21
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    mat = MaterialLaw(a=scalar_fn("quadratic_plus"),
                      b=scalar_fn("constant", value=2.0), V=1.0)
    s = snap(N, v=mesh.nodes.copy(), chi=np.full(N, 0.5))
    d = dissipation(s, mat, ops)
    assert d.value == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# EDI / UEDI
# ---------------------------------------------------------------------------

def _weak_config(**kw):
    defaults = dict(N=31, L=1.0, T=0.4, K=40, material=material(),
                    potential=make_potential("quadratic"),
                    u0=lambda x: 0.3 * np.cos(np.pi * x), v0=0.0,
                    chi0=lambda x: 0.8 + 0.1 * np.cos(np.pi * x), mode="weak")
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_edi_zero_data_run_is_exactly_zero():
    cfg = _weak_config(u0=0.0, chi0=0.8,
                       potential=make_potential("quadratic", {"center": 0.8}))
    traj = run_weak(cfg)
    rep = discrete_edi_check(traj)
    assert np.allclose(rep.slack, 0.0, atol=1e-13)
    urep = uedi_check(traj)
    assert np.allclose(urep.slack, 0.0, atol=1e-12)


def test_edi_on_forced_run_nonnegative():
    f = Forcing(profile=lambda x: np.cos(np.pi * x),
                factor=CallableFactor(lambda t: math.sin(2 * math.pi * t)))
    cfg = _weak_config(forcing=f)
    traj = run_weak(cfg)
    rep = discrete_edi_check(traj)
    assert rep.passed
    assert rep.worst_slack >= -rep.tol


def test_edi_detects_injected_energy():
    cfg = _weak_config()
    traj = run_weak(cfg)
    traj.snapshots[3].v = traj.snapshots[3].v + 0.5
    rep = discrete_edi_check(traj)
    assert np.min(rep.slack[3:]) < -1e-3
    urep = uedi_check(traj)
    assert np.min(urep.slack[3:]) < -1e-3


def test_edi_detects_injected_energy_in_second_block():
    # snapshot 70 lies in the second block of the stacked accounting
    traj = run_weak(_weak_config(K=100, T=1.0))
    traj.snapshots[70].v = traj.snapshots[70].v + 2.0
    for rep in (discrete_edi_check(traj), uedi_check(traj)):
        assert not rep.passed
        assert int(np.argmin(rep.slack)) == 70
        assert np.min(rep.slack[:70]) >= -rep.tol


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="uedi_check's default tolerance scale (dt + dt^2) 10 "
                          "+ 1e-8 is 0.150 on this 100-step run, above the "
                          "-0.120 slack that +0.5 in v at one snapshot leaves; "
                          "the discrete EDI (tol 1e-8) fails the same run")
def test_uedi_detects_injected_energy_at_half_amplitude():
    traj = run_weak(_weak_config(K=100, T=1.0))
    traj.snapshots[70].v = traj.snapshots[70].v + 0.5
    assert not discrete_edi_check(traj).passed
    assert not uedi_check(traj).passed


@pytest.fixture(scope="module")
def accounting_runs():
    """The five weak suite runs and strong_demo."""
    runs = {name: run_weak(cfg) for name, cfg in standard_suite().items()}
    cfg = build_scenario(parse_config_text(config_text("strong_demo")))
    runs["strong_demo"] = run_strong(cfg)[0]
    return runs


@pytest.mark.parametrize("name", ["quadratic", "logarithmic", "indicator_box",
                                  "strong_damage", "robin_loaded",
                                  "strong_demo"])
def test_stacked_accounting_matches_per_snapshot_oracle(accounting_runs, name):
    from damage_sim.diagnostics import _mono_tol
    from damage_sim.forcing import BoundaryForcing

    traj = accounting_runs[name]
    config = traj.extras["config"]
    mono = _mono_tol(traj)
    checks = [(uedi_check(traj), uedi_per_snapshot(
        traj, config.forcing or Forcing.zero(),
        config.boundary or BoundaryForcing.zero(), mono))]
    if traj.mode == "weak":
        checks.append((discrete_edi_check(traj), edi_per_snapshot(traj, mono)))
    for rep, (E, D, work, slack, uni) in checks:
        tol = 1e-14 * (1.0 + np.max(np.abs(E)))
        for got, want in ((rep.E, E), (rep.D_inst, D), (rep.work_cum, work),
                          (rep.slack, slack)):
            assert np.max(np.abs(got - want)) <= tol
        assert rep.unidirectional == uni
    # the single-snapshot wrappers evaluate the same formulas
    mat, pot, ops = traj.material, traj.potential, traj.ops
    for s in traj.snapshots[::37]:
        assert abs(energy(s, mat, pot, ops)
                   - energy_per_snapshot(s, mat, pot, ops)) <= tol
        dv = dissipation(s, mat, ops, mono)
        D1, uni1 = dissipation_per_snapshot(s, mat, ops, mono)
        assert abs(dv.value - D1) <= tol and dv.unidirectional == uni1


def test_in_run_series_equals_snapshot_recomputation_bitwise(accounting_runs):
    # the stepper flushes the same blocks the check evaluates
    traj = accounting_runs["robin_loaded"]
    series = traj.extras["edi_series"]
    rep = discrete_edi_check(traj)
    for key, got in (("E", rep.E), ("D", rep.D_inst), ("work", rep.work_cum)):
        assert np.array_equal(series[key], got)


def test_edi_requires_weak_mode():
    cfg = _weak_config(K=4)
    traj = run_weak(cfg)
    traj.mode = "strong"
    with pytest.raises(ValueError):
        discrete_edi_check(traj)


def test_uedi_on_robin_loaded_run():
    from damage_sim.forcing import BoundaryForcing
    g = BoundaryForcing(factor=CallableFactor(
        lambda t: 0.3 * math.sin(2 * math.pi * t)), weights=(1.0, -1.0))
    cfg = _weak_config(material=material(gamma1=0.5, gamma2=1.0), boundary=g)
    traj = run_weak(cfg)
    rep = uedi_check(traj)
    assert rep.passed


def test_edi_slack_tightens_with_inner_tolerance():
    from damage_sim.model import Tolerances
    worsts = []
    for tol in (1e-6, 1e-8):
        cfg = _weak_config(tolerances=Tolerances(inner=tol))
        traj = run_weak(cfg)
        rep = discrete_edi_check(traj, tol=1e-3)
        worsts.append(min(rep.worst_slack, 0.0))
    assert worsts[1] >= worsts[0] - 1e-12


# ---------------------------------------------------------------------------
# One-sided variational inequality
# ---------------------------------------------------------------------------

def test_vi_zero_test_function_gives_zero():
    N = 9
    ops = assemble_operators(build_mesh(N, 1.0))
    s = snap(N, chi=np.full(N, 0.5))
    val = one_sided_vi_residual(s, [np.zeros(N)], material(),
                                make_potential("quadratic"), ops)
    assert val == 0.0


def test_vi_stationary_state_with_zero_gradient():
    # W'(chi) = 0 at the center, no loads, chi_t = 0: LHS = 0 for psi = -1
    N = 9
    ops = assemble_operators(build_mesh(N, 1.0))
    pot = make_potential("quadratic", {"center": 0.5})
    s = snap(N, chi=np.full(N, 0.5))
    val = one_sided_vi_residual(s, [np.full(N, -1.0)], material("constant"),
                                pot, ops)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_vi_on_computed_run_scheme_consistent_form():
    cfg = _weak_config()
    traj = run_weak(cfg)
    N = cfg.N
    bank = [np.full(N, -1.0), -1e-3 * traj.final.chi]
    hat = np.zeros(N)
    hat[N // 2] = -1.0
    bank.append(hat)
    worst = 0.0
    for k in range(1, len(traj)):
        val = one_sided_vi_residual(traj.snapshots[k], bank, cfg.material,
                                    cfg.potential, traj.ops,
                                    prev=traj.snapshots[k - 1])
        worst = min(worst, val)
    assert worst >= -1e-8


def test_vi_rejects_positive_psi():
    N = 9
    ops = assemble_operators(build_mesh(N, 1.0))
    s = snap(N, chi=np.full(N, 0.5))
    with pytest.raises(ValueError):
        one_sided_vi_residual(s, [np.full(N, 0.1)], material(),
                              make_potential("quadratic"), ops)


# ---------------------------------------------------------------------------
# Strong energy balance
# ---------------------------------------------------------------------------

def _strong_config(**kw):
    defaults = dict(
        N=41, L=1.0, T=0.25, K=50,
        material=MaterialLaw(a=scalar_fn("cubic_plus"),
                             b=scalar_fn("constant"), C=1.0, V=1.0),
        potential=make_potential("quadratic"),
        u0=lambda x: 0.1 * np.cos(np.pi * x), v0=0.0,
        chi0=lambda x: 0.8 + 0.1 * np.cos(np.pi * x), mode="strong",
        strong=StrongSettings(n_modes=6, delta=0.05, nu=1e-6, steps=50,
                              varpi0="slaved"))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_strong_balance_zero_data_exact():
    cfg = _strong_config(u0=0.0, chi0=0.6,
                         potential=make_potential("quadratic", {"center": 0.6}),
                         strong=StrongSettings(n_modes=4, delta=0.1, nu=1e-4,
                                               steps=20, varpi0=0.0,
                                               startup_steps=0))
    traj, _ = run_strong(cfg)
    res = strong_energy_balance_residual(traj)
    assert np.max(res) <= 1e-11


def test_strong_balance_second_order_in_tau():
    res = []
    for steps in (25, 50):
        cfg = _strong_config(strong=StrongSettings(
            n_modes=6, delta=0.05, nu=1e-6, steps=steps, varpi0="slaved"))
        traj, _ = run_strong(cfg)
        res.append(strong_energy_balance_residual(traj)[-1])
    assert res[0] / res[1] >= 3.0


def test_strong_balance_detects_imbalance():
    cfg = _strong_config()
    traj, _ = run_strong(cfg)
    base = strong_energy_balance_residual(traj)[-1]
    traj.snapshots[-1].v = traj.snapshots[-1].v + 0.1
    assert strong_energy_balance_residual(traj)[-1] > base + 1e-4


@pytest.mark.parametrize("name,params", [
    ("logarithmic", {"potential.c1": 1.0}), ("smooth_double_well", {})])
def test_strong_balance_smooth_potentials(name, params):
    # strong_demo with a non-affine smooth potential: the smoothed Yosida of
    # W_breve is evaluated by quadrature, not in closed form
    flat = parse_config_text(config_text("strong_demo"))
    flat.update({"potential.name": name, "time.T": 0.04, "strong.steps": 8},
                **params)
    traj, _ = run_strong(build_scenario(flat))
    assert traj.times[-1] == pytest.approx(0.04)
    assert np.max(strong_energy_balance_residual(traj)) <= 1e-4


# ---------------------------------------------------------------------------
# Relative energy machinery
# ---------------------------------------------------------------------------

def test_relative_energy_identity_case():
    N = 9
    ops = assemble_operators(build_mesh(N, 1.0))
    rng = np.random.default_rng(5)
    s = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
             chi=rng.uniform(0.2, 0.8, N))
    val = relative_energy(s, s, material(), make_potential("quadratic"), ops)
    assert val == 0.0


def test_relative_energy_pure_displacement_difference():
    # chi = chi~, v = v~, u - u~ = x with a = 1, C = 1 -> 1/2 int 1 = 0.5
    N = 21
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    chi = np.full(N, 0.5)
    s1 = snap(N, u=mesh.nodes.copy(), chi=chi)
    s2 = snap(N, chi=chi.copy())
    val = relative_energy(s1, s2, material("constant"),
                          make_potential("quadratic"), ops)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_relative_energy_nonnegative_per_summand():
    N = 15
    ops = assemble_operators(build_mesh(N, 1.0))
    pot = make_potential("smooth_double_well", {"barrier": 2.0})
    mat = material()
    rng = np.random.default_rng(9)
    for _ in range(25):
        s1 = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
                  chi=rng.uniform(0.0, 1.0, N))
        s2 = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
                  chi=rng.uniform(0.0, 1.0, N))
        total, parts = relative_energy(s1, s2, mat, pot, ops,
                                       return_parts=True)
        for name, v in parts.items():
            assert v >= -1e-11, name
        assert total >= -1e-11


def test_relative_energy_against_quadrature_oracle():
    # quadratic potential: W = (1-ell)/2 r^2, so the ell-convexified bracket
    # W(a) - W(b) - W'(b)(a-b) + ell/2 (a-b)^2 collapses to (a-b)^2 / 2
    N = 5
    mesh = build_mesh(N, 1.0)
    ops = assemble_operators(mesh)
    ell = 0.5
    pot = make_potential("quadratic", {"ell": ell})
    mat = material()
    rng = np.random.default_rng(23)
    s1 = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
              chi=rng.uniform(0.2, 0.8, N))
    s2 = snap(N, u=rng.standard_normal(N), v=rng.standard_normal(N),
              chi=rng.uniform(0.2, 0.8, N))
    val = relative_energy(s1, s2, mat, pot, ops)
    h = mesh.h
    du = s1.u - s2.u
    dchi = s1.chi - s2.chi
    an = mat.a(s1.chi)
    ref = 0.0
    for e in range(N - 1):
        ref += 0.5 * (dchi[e + 1] - dchi[e]) ** 2 / h
        strain = (du[e + 1] - du[e]) / h
        ref += 0.25 * h * (an[e] + an[e + 1]) * strain**2
    dv = s1.v - s2.v
    for e in range(N - 1):
        ref += 0.5 * h / 3.0 * (dv[e] ** 2 + dv[e] * dv[e + 1] + dv[e + 1] ** 2)
    ref += float(np.dot(ops.w, 0.5 * dchi**2))
    assert val == pytest.approx(ref, abs=1e-9)


def test_relative_dissipation_identity_and_kappa_static():
    N = 9
    ops = assemble_operators(build_mesh(N, 1.0))
    mat = material()
    pot = make_potential("quadratic", {"ell": 0.7})
    s = snap(N, u=np.zeros(N), chi=np.full(N, 0.5))
    w, feas = relative_dissipation(s, s, mat, ops)
    assert w == 0.0 and feas
    # static zero reference: K = C_REI * ell^2
    assert kappa(s, mat, pot, ops, c_rei=2.0) == pytest.approx(2.0 * 0.7**2)


def test_rei_identical_trajectories():
    cfg = _weak_config(K=10)
    traj = run_weak(cfg)
    rep = rei_check(traj, traj)
    assert np.allclose(rep.R, 0.0, atol=1e-14)
    assert np.min(rep.slack) >= -1e-12
    assert rep.sup_R == 0.0
    assert rep.passed


def test_rei_sign_term_nonpositive_on_feasible_pairs():
    cfg = _weak_config(K=20)
    traj = run_weak(cfg)
    pert = _weak_config(K=20, chi0=lambda x: 0.75 + 0.1 * np.cos(np.pi * x))
    traj2 = run_weak(pert)
    rep = rei_check(traj2, traj)
    assert rep.sign_ok
    assert np.all(rep.coupling <= 1e-9)


def test_rei_slack_matches_quadratic_sum_on_compare_pair():
    # a weak run against a strong run on the twice refined mesh and time
    # grid, as compare mode pairs them
    mat = MaterialLaw(a=scalar_fn("cubic_plus"), b=scalar_fn("constant"))
    weak = run_weak(_weak_config(N=21, T=0.25, K=25, material=mat))
    strong, _ = run_strong(_strong_config(output_stride=2))
    rep = rei_check(weak, strong)
    ref = rei_slack_quadratic(rep)
    assert rep.slack.size == 26 and np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(rep.slack - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def test_calibrated_envelope_transfers_to_smaller_perturbation():
    base_chi = lambda x: 0.8 + 0.1 * np.cos(np.pi * x)
    f = Forcing(profile=lambda x: np.cos(np.pi * x),
                factor=CallableFactor(lambda t: 2.0 * math.sin(2 * math.pi * t)))
    ref = run_weak(_weak_config(forcing=f, chi0=base_chi))
    runs = {}
    for eps in (1e-2, 1e-3):
        pert_chi = (lambda e: lambda x: base_chi(x)
                    + e * math.sqrt(2.0) * np.cos(np.pi * x))(eps)
        runs[eps] = run_weak(_weak_config(forcing=f, chi0=pert_chi))
    c = calibrate_c_rei(runs[1e-2], ref, form="envelope")
    rep = rei_check(runs[1e-3], ref, c_rei=c)
    assert rep.envelope_ok(0.5)


def test_calibrate_rejects_forms_other_than_envelope():
    traj = run_weak(_weak_config(K=5))
    for form in ("full", "slack", ""):
        with pytest.raises(ValueError, match="form"):
            calibrate_c_rei(traj, traj, form=form)


def test_calibrate_requires_perturbed_data():
    cfg = _weak_config(K=5)
    traj = run_weak(cfg)
    with pytest.raises(ValueError):
        calibrate_c_rei(traj, traj)


def test_edi_series_path_matches_snapshot_recomputation():
    # stride 1 is checked from the snapshots, stride 5 from the in-run series
    f = Forcing(profile=lambda x: np.cos(np.pi * x),
                factor=CallableFactor(lambda t: math.sin(2 * math.pi * t)))
    full = run_weak(_weak_config(K=20, forcing=f))
    strided = run_weak(_weak_config(K=20, forcing=f, output_stride=5))
    recomputed = discrete_edi_check(full)
    from_series = discrete_edi_check(strided)
    assert len(strided) < from_series.slack.size == len(full) == 21
    for field in ("E", "D_inst", "work_cum", "slack"):
        assert np.array_equal(getattr(recomputed, field),
                              getattr(from_series, field)), field


def test_edi_recompute_path_uses_configured_mono_tolerance():
    # a 1e-8 increase of chi lies inside a configured tol.mono = 1e-6, so
    # the snapshot recomputation must accept it as the run series and UEDI do
    flat = parse_config_text(config_text("quadratic"))
    flat["tol.mono"] = 1e-6
    traj = run_weak(build_scenario(flat))
    traj.snapshots[5].chi_t[10] = 1e-8
    assert traj.extras["edi_series"]["unidirectional"]
    assert uedi_check(traj).unidirectional
    rep = discrete_edi_check(traj)
    assert rep.D_inst.size == len(traj)      # the recompute path ran
    assert rep.unidirectional


def test_strided_run_keeps_edi_checkable():
    cfg = _weak_config(K=40, output_stride=10)
    traj = run_weak(cfg)
    assert len(traj) == 5
    rep = discrete_edi_check(traj)
    assert rep.slack.size == 41
    assert rep.passed
