"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured margins.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from damage_sim.diagnostics import (
    calibrate_c_rei,
    discrete_edi_check,
    rei_check,
    strong_energy_balance_residual,
)
from damage_sim.discretization import (
    assemble_operators,
    banded_quadform,
    build_mesh,
    neumann_eigenbasis,
)
from damage_sim.forcing import ConstantFactor, Forcing, SineFactor
from damage_sim.model import (
    MaterialLaw,
    ScenarioConfig,
    StrongSettings,
    make_potential,
    scalar_fn,
)
from damage_sim.regularization import (
    graph_indicator_box,
    graph_indicator_halfline,
    regularization_property_check,
    regularize,
)
from damage_sim.strong_galerkin import run_strong
from damage_sim.weak_stepper import (
    assemble_damage_subproblem,
    damage_step,
    run_weak,
    truncation_consistency_check,
)

from oracles import kkt_enumeration, modal_exact_solution
from suite_configs import config_text, standard_suite


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def suite_runs():
    runs = {}
    for name, cfg in standard_suite().items():
        t0 = time.perf_counter()
        traj = run_weak(cfg)
        runs[name] = (traj, time.perf_counter() - t0)
    return runs


def test_criterion_01_discrete_edi(suite_runs):
    worst = math.inf
    slowest = 0.0
    for name, (traj, wall) in suite_runs.items():
        rep = discrete_edi_check(traj)
        worst = min(worst, rep.worst_slack)
        slowest = max(slowest, wall)
        assert rep.unidirectional, name
    ok = worst >= -1e-6 and slowest < 60.0
    report(1, ok, f"EDI worst slack {worst:+.2e} >= -1e-6 on 5 scenarios, "
                  f"slowest run {slowest:.1f}s < 60s")


def test_criterion_02_constraint_theorem(suite_runs):
    mono_worst = 0.0
    chi_min = math.inf
    chi_max = -math.inf
    box_wall = math.inf
    for name, (traj, _) in suite_runs.items():
        for k in range(1, len(traj)):
            viol = float(np.max(traj.snapshots[k].chi
                                - traj.snapshots[k - 1].chi))
            mono_worst = max(mono_worst, viol)
        lo = min(float(np.min(s.chi)) for s in traj.snapshots)
        hi = max(float(np.max(s.chi)) for s in traj.snapshots)
        chi_min, chi_max = min(chi_min, lo), max(chi_max, hi)
        trep = truncation_consistency_check(traj)
        assert not trep.skipped and trep.passed, name
        if traj.potential.name == "indicator_box":
            box_wall = min(box_wall, lo)
    ok = (mono_worst <= 1e-10 and chi_min >= 0.0 and chi_max <= 1.0 + 1e-12
          and box_wall > 1e-6)
    report(2, ok, f"monotonicity violation {mono_worst:.1e} <= 1e-10 (imposed), "
                  f"chi in [{chi_min:.3f}, {chi_max:.3f}] with no clamping "
                  f"(positivity verified, box wall inactive at {box_wall:.3f})")


def test_criterion_03_inner_solver_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for trial in range(200):
        if trial < 160:
            n = int(rng.integers(3, 9))
            a_kind, a_name, a_scale = "linear", "identity", 1.0
        else:
            n = int(rng.integers(3, 6))
            a_kind, a_name, a_scale = "quadratic_plus", "quadratic_plus", 1.0
        ops = assemble_operators(build_mesh(n, 1.0))
        mat = MaterialLaw(a=scalar_fn(a_name), b=scalar_fn("constant"))
        ell = float(rng.uniform(0.0, 1.5))
        pot = make_potential("quadratic", {"ell": ell})
        chi_prev = rng.uniform(-0.2, 1.0, n)
        sub = assemble_damage_subproblem(ops, mat, pot, np.zeros(n),
                                         chi_prev, float(rng.uniform(0.02, 0.2)))
        sub.load = rng.uniform(0.0, 5.0, n)
        chi, _ = damage_step(sub)
        ref = kkt_enumeration(sub, slope=1.0, center=0.0, a_kind=a_kind,
                              a_scale=a_scale)
        worst = max(worst, float(np.max(np.abs(chi - ref))))
        count += 1
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 10.0 and count == 200
    report(3, ok, f"{count} random subproblems vs exhaustive KKT enumeration: "
                  f"max deviation {worst:.2e} <= 1e-8 in {wall:.1f}s < 10s")


def test_criterion_04_regularization_bounds():
    t0 = time.perf_counter()
    grid = np.linspace(-2.0, 2.0, 401)
    worst_margin = math.inf
    for delta in (0.2, 0.1, 0.05):
        for graph in (graph_indicator_halfline(), graph_indicator_box()):
            rep = regularization_property_check(regularize(graph, delta), grid)
            worst_margin = min(worst_margin, min(rep.margins().values()))
            assert rep.passed, (delta, graph.name)
    wall = time.perf_counter() - t0
    ok = worst_margin > 0.0 and wall < 5.0
    report(4, ok, f"all four bounds hold for deltas {{0.2,0.1,0.05}} x two "
                  f"graphs, worst margin {worst_margin:.2e} > 0 in {wall:.1f}s < 5s")


def test_criterion_05_eigenbasis():
    exact = np.array([(k * np.pi) ** 2 for k in range(6)])
    b1 = neumann_eigenbasis(build_mesh(401, 1.0), 1.0, 5)
    rel1 = np.abs(b1.eigenvalues[1:] - exact[1:]) / exact[1:]
    b2 = neumann_eigenbasis(build_mesh(801, 1.0), 1.0, 5)
    rel2 = np.abs(b2.eigenvalues[1:] - exact[1:]) / exact[1:]
    factor = float(np.min(rel1 / rel2))
    ok = (abs(b1.eigenvalues[0]) <= 1e-12 and float(np.max(rel1)) <= 1e-3
          and factor >= 3.5)
    report(5, ok, f"modes 0-5 relative error {np.max(rel1):.2e} <= 1e-3, "
                  f"h-halving improvement x{factor:.2f} >= 3.5")


def test_criterion_06_linear_regime_exactness():
    mat = MaterialLaw(a=scalar_fn("constant"), b=scalar_fn("constant"),
                      C=1.0, V=1.0)
    pot = make_potential("quadratic")
    T, N = 0.25, 201
    uamps = [0.05, 0.02, 0.01]
    camps = [0.6, 0.03, 0.005]

    def u0(x):
        return sum(a * np.cos(k * np.pi * x) for k, a in enumerate(uamps))

    def chi0(x):
        return sum(a * np.cos(k * np.pi * x) for k, a in enumerate(camps))

    def analytic(x, t):
        u = np.zeros_like(x)
        chi = np.zeros_like(x)
        for k, a in enumerate(uamps):
            lam = (k * np.pi) ** 2
            c, _ = modal_exact_solution(lam, 1.0, 1.0, a, 0.0, t)
            u += c * np.cos(k * np.pi * x)
        for k, a in enumerate(camps):
            lam = (k * np.pi) ** 2
            chi += a * np.exp(-(1.0 + lam) * t) * np.cos(k * np.pi * x)
        return u, chi

    errs = []
    for K in (25, 50, 100):      # tau = 1/100, 1/200, 1/400
        cfg = ScenarioConfig(N=N, L=1.0, T=T, K=K, material=mat,
                             potential=pot, u0=u0, v0=0.0, chi0=chi0,
                             mode="weak")
        traj = run_weak(cfg)
        assert max(r.active_count for r in traj.step_reports) == 0
        ue, ce = analytic(traj.mesh.nodes, T)
        s = traj.final
        errs.append(math.sqrt(banded_quadform(traj.ops.M, s.u - ue)
                              + banded_quadform(traj.ops.M, s.chi - ce)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    h = 1.0 / (N - 1)
    c_fit = max(e / (T / K + h * h) for e, K in zip(errs, (25, 50, 100)))
    ok = min(orders) >= 0.9
    report(6, ok, f"modal-solution errors {['%.2e' % e for e in errs]}, "
                  f"fitted tau-orders {['%.2f' % o for o in orders]} >= 0.9 "
                  f"(C_fit = {c_fit:.2f}, constraint inactive)")


def _strong_cfg(forcing=Forcing.zero(), steps=100, N=65, varpi0="slaved", **kw):
    mat = MaterialLaw(a=scalar_fn("cubic_plus"), b=scalar_fn("constant"),
                      C=1.0, V=1.0)
    defaults = dict(
        N=N, L=1.0, T=0.5, K=100, material=mat,
        potential=make_potential("quadratic"),
        u0=lambda x: 0.1 * np.cos(np.pi * x), v0=0.0,
        chi0=lambda x: 0.8 + 0.1 * np.cos(np.pi * x),
        forcing=forcing, mode="strong",
        strong=StrongSettings(n_modes=10, delta=0.05, nu=1e-6, steps=steps,
                              varpi0=varpi0))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_criterion_07_mean_identity():
    forcings = {
        "zero": Forcing.zero(),
        "constant": Forcing(profile=None, factor=ConstantFactor(0.7)),
        "sin_2pi_t": Forcing(profile=None, factor=SineFactor(1.0, 1.0)),
    }
    worst = 0.0
    for name, f in forcings.items():
        traj, _ = run_strong(_strong_cfg(forcing=f))
        for _, res, scale in traj.extras["mean_identity"]:
            worst = max(worst, res / scale)
    ok = worst <= 1e-8
    report(7, ok, f"mean-displacement identity residual {worst:.2e} <= 1e-8 "
                  f"for f in {{0, constant, sin(2 pi t)}}")


def test_criterion_08_strong_balance_convergence():
    res = []
    for steps in (50, 100):
        traj, _ = run_strong(_strong_cfg(steps=steps))
        res.append(strong_energy_balance_residual(traj)[-1])
    factor = res[0] / res[1]
    ok = factor >= 3.0
    report(8, ok, f"energy-balance residual at T: {res[0]:.2e} -> {res[1]:.2e}, "
                  f"halving tau_ode improves x{factor:.2f} >= 3")


def test_criterion_09_weak_strong_agreement():
    t0 = time.perf_counter()
    mat = MaterialLaw(a=scalar_fn("cubic_plus"), b=scalar_fn("constant"),
                      C=1.0, V=1.0)
    pot = make_potential("quadratic")
    u0 = lambda x: 0.1 * np.cos(np.pi * x)
    chi0 = lambda x: 0.8 + 0.1 * np.cos(np.pi * x)
    sups = []
    for rung in range(3):
        N = 32 * 2**rung + 1
        K = 50 * 2**rung
        weak = run_weak(ScenarioConfig(
            N=N, L=1.0, T=0.5, K=K, material=mat, potential=pot,
            u0=u0, v0=0.0, chi0=chi0, mode="weak"))
        strong, _ = run_strong(ScenarioConfig(
            N=(N - 1) * 4 + 1, L=1.0, T=0.5, K=K, material=mat, potential=pot,
            u0=u0, v0=0.0, chi0=chi0, mode="strong", output_stride=4,
            strong=StrongSettings(n_modes=16, delta=1e-3, nu=1e-12,
                                  steps=K * 4, varpi0="slaved")))
        rep = rei_check(weak, strong)
        assert rep.sign_ok and rep.feasible
        sups.append(rep.sup_R)
    ratios = [sups[i] / sups[i + 1] for i in range(2)]
    wall = time.perf_counter() - t0
    ok = min(ratios) >= 2.0 and wall < 600.0
    report(9, ok, f"sup_t R = {['%.2e' % s for s in sups]}, per-rung decrease "
                  f"x{['%.2f' % r for r in ratios]} >= 2 in {wall:.0f}s < 600s")


def test_criterion_10_gronwall_envelope():
    mat = MaterialLaw(a=scalar_fn("cubic_plus"), b=scalar_fn("constant"),
                      C=1.0, V=1.0)
    pot = make_potential("quadratic")
    base_chi = lambda x: 0.8 + 0.1 * np.cos(np.pi * x)
    f = Forcing(profile=lambda x: np.cos(np.pi * x),
                factor=SineFactor(2.0, 1.0))

    def weak_run(chi_init):
        return run_weak(ScenarioConfig(
            N=65, L=1.0, T=0.5, K=100, material=mat, potential=pot,
            u0=lambda x: 0.1 * np.cos(np.pi * x), v0=0.0, chi0=chi_init,
            forcing=f, mode="weak"))

    ref = weak_run(base_chi)
    runs = {}
    for eps in (1e-2, 1e-3):
        pert = (lambda e: lambda x: base_chi(x)
                + e * math.sqrt(2.0) * np.cos(np.pi * x))(eps)
        runs[eps] = weak_run(pert)
    c = calibrate_c_rei(runs[1e-2], ref)
    ok = True
    margins = {}
    for eps in (1e-2, 1e-3):
        rep = rei_check(runs[eps], ref, c_rei=c)
        margins[eps] = float(np.max(rep.R / (rep.rhs * 1.5 + 1e-300)))
        ok &= rep.envelope_ok(0.5)
    report(10, ok, f"R(t) <= R(0) exp(int K) x 1.5 with frozen C_REI={c:.2e}; "
                   f"peak envelope use {margins[1e-2]:.2f} / {margins[1e-3]:.2f} <= 1")


def test_criterion_11_delta_nu_ladder():
    finals = []
    ops = None
    for n in (1, 2, 3):
        p = StrongSettings(schedule_n=n).resolved()
        traj, _ = run_strong(_strong_cfg(
            strong=StrongSettings(n_modes=10, delta=p.delta, nu=p.nu,
                                  steps=100, varpi0="slaved")))
        ops = traj.ops
        finals.append(traj.final)

    def dist(a, b):
        return math.sqrt(banded_quadform(ops.M, a.u - b.u)
                         + banded_quadform(ops.M, a.v - b.v)
                         + banded_quadform(ops.M, a.chi - b.chi))

    d1 = dist(finals[1], finals[0])
    d2 = dist(finals[2], finals[1])
    ratio = d2 / d1
    ok = ratio <= 0.8
    report(11, ok, f"schedule rung differences {d1:.3e} -> {d2:.3e}, "
                   f"ratio {ratio:.2f} <= 0.8")


def test_criterion_12_determinism(tmp_path):
    from test_cli import STRONG_SMALL, dir_digest, write_cfg
    from damage_sim.cli import run_scenario

    weak_cfg = write_cfg(tmp_path, config_text("indicator_box")
                         .replace("mesh.N = 201", "mesh.N = 41")
                         .replace("time.K = 400", "time.K = 25"), "w.cfg")
    strong_cfg = write_cfg(tmp_path, STRONG_SMALL, "s.cfg")
    identical = True
    for cfg, mode in ((weak_cfg, "weak"), (strong_cfg, "strong")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}_{tag}"
            run_scenario(cfg, mode, str(out))
            outs.append(dir_digest(out))
        identical &= outs[0] == outs[1]
    report(12, identical, "reruns reproduce byte-identical CSV/JSON outputs")
