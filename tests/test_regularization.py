from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from damage_sim.model import make_potential
from damage_sim.regularization import (
    _BUMP_MASS,
    RegularizedFunction,
    _bump_raw,
    graph_indicator_box,
    graph_indicator_halfline,
    graph_quadratic,
    graph_smooth,
    make_I_delta,
    make_W_delta,
    regularization_property_check,
    regularize,
    standard_mollifier,
)

from oracles import (
    mollified_pw_clipped,
    mollified_yosida_kernel_form,
    mollified_yosida_pointwise,
    potential_on_grid_per_interval,
)


# ---------------------------------------------------------------------------
# Mollifier invariants
# ---------------------------------------------------------------------------

def test_mollifier_mass_support_evenness():
    m = standard_mollifier()
    mass, _ = quad(lambda z: float(m.rho(np.array([z]))[0]), -1, 1,
                   epsabs=1e-12, epsrel=1e-12)
    assert abs(mass - 1.0) <= 1e-10
    assert m.rho(np.array([1.0]))[0] == 0.0
    assert m.rho(np.array([-1.0]))[0] == 0.0
    z = np.linspace(-0.97, 0.97, 41)
    assert np.allclose(m.rho(z), m.rho(-z), atol=1e-15)
    # c_hat = ||rho'||_1 = 2 rho(0) for a unimodal even bump
    c_hat, _ = quad(lambda z: abs(float(m.drho(np.array([z]))[0])), -1, 1,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    assert m.c_hat == pytest.approx(c_hat, rel=1e-8)


def test_moment_tables_match_quadrature():
    assert quad(_bump_raw, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)[0] \
        == _BUMP_MASS
    m = standard_mollifier()
    w = np.random.default_rng(0).uniform(-1.0, 1.0, 60)
    # quad meets these points to about 2e-16 (against 30-digit mpmath);
    # asked for 1e-14 it warns of round-off on some of them
    for k, table in enumerate((m.cum_F, m.cum_G, m.cum_H)):
        want = [quad(lambda z: float(m.rho(np.array([z]))[0]) * z**k, -1.0, x,
                     epsabs=3e-14, epsrel=3e-14, limit=200)[0] for x in w]
        assert np.max(np.abs(table(w) - want)) <= 1e-14, k
    assert m.cum_F(-1.0) == 0.0 and m.cum_F(1.0) == 1.0
    F, G, H = m.moments(np.array([-2.0, -1.0, 1.0, 2.0, np.nan, 0.5]), 3)
    assert list(F[:4]) == [0.0, 0.0, 1.0, 1.0]
    for moment in (F, G, H):
        assert np.isnan(moment[4]) and np.isfinite(moment[5])


def test_gauss_rule_reproduces_the_kernel_moments():
    m = standard_mollifier()
    z, w = m.nodes, m.weights
    assert z.shape == w.shape == (6,)
    assert np.all(np.abs(z) < 1.0) and np.all(w > 0.0)
    assert abs(np.sum(w) - 1.0) <= 1e-15
    assert abs(np.dot(w, z**2) - m.cum_H(1.0)) <= 1e-15
    # even kernel: the rule is symmetric and integrates odd moments to 0
    assert np.max(np.abs(z + z[::-1])) <= 1e-15
    assert abs(np.dot(w, z**3)) <= 1e-15


# ---------------------------------------------------------------------------
# Resolvent and Yosida examples
# ---------------------------------------------------------------------------

def test_resolvent_examples():
    g = graph_indicator_halfline()
    assert g.prox(0.5, 1.0) == 0.0
    assert g.prox(0.5, -2.0) == -2.0
    gq = graph_quadratic()
    for lam, x in ((0.5, 1.0), (2.0, -3.0)):
        assert gq.prox(lam, x) == pytest.approx(x / (1.0 + lam))


def test_yosida_examples():
    g = graph_indicator_halfline()
    assert g.yosida(0.5, 1.0) == pytest.approx(2.0)
    assert g.yosida(0.5, -1.0) == 0.0
    gq = graph_quadratic()
    assert gq.yosida(0.5, 3.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Smoothed Yosida evaluation
# ---------------------------------------------------------------------------

def test_smooth_yosida_away_from_kink_is_exact():
    # delta = 0.5: kernel support radius 0.25 misses the kink at 0
    reg = regularize(graph_indicator_halfline(), 0.5)
    v, d1, d2 = reg.eval_all(1.0)
    assert v == pytest.approx(2.0, abs=1e-12)
    assert d1 == pytest.approx(2.0, abs=1e-10)
    assert abs(d2) <= 1e-8
    v, d1, d2 = reg.eval_all(-1.0)
    assert abs(v) <= 1e-15 and abs(d1) <= 1e-12


def test_smooth_yosida_at_kink_matches_brute_force_quadrature():
    delta = 0.5
    reg = regularize(graph_indicator_halfline(), delta)
    m = reg.mollifier
    rad = delta**2

    def integrand(y):
        return (float(m.rho(np.array([y / rad]))[0]) / rad
                * max(-y, 0.0) / delta)

    expected, err = quad(integrand, -rad, rad, points=[0.0],
                         epsabs=1e-12, epsrel=1e-12, limit=400)
    assert err < 1e-10
    v, _, _ = reg.eval_all(0.0)
    assert v == pytest.approx(expected, abs=1e-10)


def test_derivatives_match_finite_differences():
    for graph in (graph_indicator_halfline(), graph_indicator_box()):
        reg = regularize(graph, 0.1)
        xs = np.linspace(-0.5, 1.5, 23)
        h = 1e-5
        v, d1, d2 = reg.eval_all(xs)
        vp = reg.eval_all(xs + h)[0]
        vm = reg.eval_all(xs - h)[0]
        fd1 = (vp - vm) / (2 * h)
        fd2 = (vp - 2 * v + vm) / h**2
        assert np.max(np.abs(fd1 - d1)) <= 1e-3 * (1.0 + np.max(np.abs(d1)))
        assert np.max(np.abs(fd2 - d2)) <= 1e-3 * (1.0 + np.max(np.abs(d2)))


def test_monotonicity_of_regularized_value():
    for graph in (graph_indicator_halfline(), graph_indicator_box(),
                  graph_quadratic()):
        reg = regularize(graph, 0.15)
        xs = np.linspace(-1.5, 2.5, 401)
        v = reg.eval_all(xs)[0]
        assert np.all(np.diff(v) >= -1e-12)


def test_delta_ladder_converges_to_minimal_section():
    # interior points of the domain where beta is single-valued
    g = graph_indicator_halfline()
    errs = [abs(regularize(g, d).eval_all(-0.5)[0])
            for d in (0.2, 0.1, 0.05, 0.025)]
    assert all(e1 >= e2 - 1e-15 for e1, e2 in zip(errs, errs[1:]))
    gq = graph_quadratic()
    x = 0.7
    errs = [abs(regularize(gq, d).eval_all(x)[0] - x)
            for d in (0.2, 0.1, 0.05, 0.025)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 0.03


# ---------------------------------------------------------------------------
# Property check
# ---------------------------------------------------------------------------

def test_property_check_indicator_all_bounds_hold():
    grid = np.linspace(-2, 2, 401)
    rep = regularization_property_check(regularize(graph_indicator_halfline(), 0.1),
                                        grid)
    assert rep.passed
    assert all(m > 0 for m in rep.margins().values())


def test_property_check_quadratic_mollification_exact():
    grid = np.linspace(-3, 3, 301)
    reg = regularize(graph_quadratic(), 0.3)
    v = reg.eval_all(grid)[0]
    yos = reg.ref_yosida(grid)
    assert np.max(np.abs(v - yos)) <= 1e-14
    assert regularization_property_check(reg, grid).passed


class _DoubledSlope(RegularizedFunction):
    """A regularization whose first derivative is twice the true one."""

    def eval_all(self, x):
        v, d1, d2 = super().eval_all(x)
        return v, 2.0 * d1, d2


def test_property_check_flags_wrong_metadata_delta():
    # a function with the slopes of delta = 0.025 that records delta = 0.05:
    # |d1| reaches 1/0.025, which breaks |d1| <= 1/0.05, and only that bound
    grid = np.linspace(-2, 2, 401)
    reg = regularize(graph_indicator_halfline(), 0.05)
    rep = regularization_property_check(
        _DoubledSlope(reg.graph, reg.delta, reg.mollifier), grid)
    assert [c.name for c in rep.checks if not c.passed] == ["first_derivative"]


def test_property_check_empty_grid_rejected():
    reg = regularize(graph_indicator_halfline(), 0.1)
    with pytest.raises(ValueError):
        regularization_property_check(reg, np.array([]))


# ---------------------------------------------------------------------------
# Normalized regularizations
# ---------------------------------------------------------------------------

def test_make_W_delta_indicator_curvature_bounds():
    pot = make_potential("indicator_box")
    delta = 0.2
    reg = make_W_delta(pot, delta)
    grid = np.linspace(-1, 2, 1201)
    d1 = reg.eval_all(grid)[1]
    assert np.min(d1) >= 0.0
    assert np.max(d1) <= 1.0 / delta + 1e-9
    d2 = reg.eval_all(grid)[2]
    assert np.max(np.abs(d2)) <= reg.mollifier.c_hat / delta**3 + 1e-9


def test_make_W_delta_quadratic_exact():
    pot = make_potential("quadratic")
    for delta in (0.3, 0.1):
        reg = make_W_delta(pot, delta)
        xs = np.array([-1.0, 0.4, 2.0])
        assert np.allclose(reg.eval_all(xs)[0], xs / (1.0 + delta), atol=1e-14)


def test_make_I_delta_normalization():
    # at 1e-7 and 2^-22 the drift at 0, about 0.17 delta, is below the
    # 1e-14/delta tolerance; only the translation makes it exactly zero
    for delta in (0.3, 0.1, 0.05, 1e-7, 2.0 ** -22):
        reg = make_I_delta(delta)
        assert reg.eval_all(0.0)[0] == 0.0
        xs = np.linspace(-2, 0, 41)
        assert np.max(np.abs(reg.eval_all(xs)[0])) == 0.0
        xs = np.linspace(-2, 2, 81)
        d1 = reg.eval_all(xs)[1]
        assert np.all(d1 >= 0) and np.max(d1) <= 1.0 / delta + 1e-9


def test_make_W_delta_keeps_non_normalized_models_untouched():
    # a centered quadratic has W'(0) != 0; no translation may be applied
    pot = make_potential("quadratic", {"center": 1.0})
    reg = make_W_delta(pot, 0.2)
    assert reg.shift == 0.0 and reg.vshift == 0.0
    assert reg.eval_all(1.0)[0] == pytest.approx(0.0, abs=1e-14)


def test_potential_sandwich_of_normalized_objects():
    pot = make_potential("indicator_box")
    reg = make_W_delta(pot, 0.1)
    rep = regularization_property_check(reg, np.linspace(-1, 2, 301))
    assert rep.passed


# ---------------------------------------------------------------------------
# Gauss rule of the smooth graphs
# ---------------------------------------------------------------------------

def _smooth_points(delta):
    # within delta^2 of the log barrier's domain ends, and across [-1, 2]
    return np.concatenate([np.linspace(-0.99, 0.99, 23) * delta**2,
                           1.0 + np.linspace(-0.99, 0.99, 23) * delta**2,
                           np.linspace(-1.0, 2.0, 31)])


@pytest.mark.parametrize("name", ["logarithmic", "smooth_double_well"])
def test_broadcast_quadrature_matches_pointwise_oracle(name):
    delta = 0.1
    reg = make_W_delta(make_potential(name), delta)
    xs = _smooth_points(delta)
    got = reg.eval_all(xs)
    ref, scale = mollified_yosida_pointwise(reg, xs)
    for g, r, s in zip(got, ref, scale):
        assert np.max(np.abs(g - r) / (1.0 + s)) <= 1e-13


@pytest.mark.parametrize("delta", [0.1, 0.05])
@pytest.mark.parametrize("name", ["logarithmic", "smooth_double_well"])
def test_gauss_rule_matches_kernel_form_convolution(name, delta):
    # W', W'' and W''' against GL-1000 convolutions with rho, rho' and
    # rho'', relative to the rounding scale of those sums: the W''' sum
    # cancels terms of size |beta_Y| C_rho / delta^4 down to O(1)
    reg = make_W_delta(make_potential(name), delta)
    xs = _smooth_points(delta)
    got = reg.eval_all(xs)
    ref, scale = mollified_yosida_kernel_form(reg, xs)
    for g, r, s in zip(got, ref, scale):
        assert np.max(np.abs(g - r) / (1.0 + s)) <= 1e-12


def test_regularize_rejects_a_graph_it_cannot_mollify():
    g = graph_indicator_halfline()
    with pytest.raises(ValueError, match="neither affine"):
        regularize(replace(g, pw_base_slope=None, pw_jumps=None), 0.1)
    smooth = make_potential("smooth_double_well").convex_part
    with pytest.raises(ValueError, match="both derivatives"):
        regularize(replace(smooth, second_derivative=None), 0.1)


@pytest.mark.xfail(strict=True, reason=(
    "make_potential('logarithmic') clips beta' at eps_dom = 1e-9 (the eps_dom "
    "FOUND of CHANGES.md): where the prox stops at the domain end, the chain "
    "rule reads beta'(J) = 1/eps_dom instead of an infinite slope, so "
    "delta W'' - 1 is -1e-7 at delta = 0.01 and -1e-6 at delta = 1e-3 at "
    "x = -0.3 and 1.3, where it is 0"))
@pytest.mark.parametrize("delta", [0.01, 0.001])
def test_logarithmic_curvature_beyond_eps_dom_is_one_over_delta(delta):
    reg = make_W_delta(make_potential("logarithmic", {"c1": 1.0}), delta)
    d1 = reg.eval_all(np.array([-0.3, 1.3]))[1]
    assert np.max(np.abs(delta * d1 - 1.0)) <= 1e-9


@pytest.mark.parametrize("delta", [0.1, 0.05, 0.001])
@pytest.mark.parametrize("name,params", [("logarithmic", {"c1": 1.0}),
                                         ("smooth_double_well", {})])
def test_property_check_smooth_graphs(name, params, delta):
    reg = make_W_delta(make_potential(name, params), delta)
    rep = regularization_property_check(reg, np.linspace(-0.5, 1.5, 201))
    assert rep.passed, rep.checks
    assert [c.name for c in rep.checks][-1] == "potential_sandwich"


@pytest.mark.parametrize("name", ["logarithmic", "smooth_double_well",
                                  "indicator_box"])
def test_potential_on_grid_unsorted_duplicates_and_anchor(name):
    reg = make_W_delta(make_potential(name), 0.1)
    x0 = reg.graph.anchor
    xs = np.array([0.9, x0, 0.2, 0.9, -0.3, x0, 0.2, 1.2])
    pot = reg.potential_on_grid(xs)
    assert pot[0] == pot[3] and pot[2] == pot[6] and pot[1] == pot[5]
    assert pot[1] == reg.ref_envelope(x0)
    order = np.argsort(xs, kind="stable")
    assert np.array_equal(reg.potential_on_grid(xs[order]), pot[order])
    # convex, with the regularized derivative as slope
    h = 1e-4
    fd = (reg.potential_on_grid(xs + h) - reg.potential_on_grid(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - reg.eval_all(xs)[0])) <= 1e-6


# ---------------------------------------------------------------------------
# Piecewise-affine path, memo, one-pass potential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.05, 0.001])
@pytest.mark.parametrize("graph", [graph_indicator_halfline(),
                                   graph_indicator_box()])
def test_piecewise_affine_path_matches_clipped_spline_oracle(graph, delta):
    reg = regularize(graph, delta)
    rad = delta * delta
    xs = np.array([k + rad * w for k in graph.kinks
                   for w in (-3.0, -1.0, -0.5, 0.0, 0.7, 1.0, 2.5)])
    xs = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                         [-np.inf, np.inf, np.nan]])
    ws = np.concatenate([(xs - k) / rad for k in graph.kinks])
    for region in (ws < -1.0, ws == -1.0, np.abs(ws) < 1.0, ws == 1.0, ws > 1.0):
        assert region.any()
    with np.errstate(invalid="ignore"):         # inf - inf at the infinities
        pairs = zip(reg._raw_all(xs), mollified_pw_clipped(reg, xs))
        for got, ref in pairs:
            assert got.tobytes() == ref.tobytes()


def test_eval_all_repeat_returns_equal_fresh_arrays():
    reg = make_I_delta(0.05)
    x = np.linspace(-0.01, 0.01, 41)
    first = reg.eval_all(x)
    again = reg.eval_all(x.copy())
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes() and a is not b
        b[:] = 7.0          # writing into a result changes no later one
    for a, b in zip(first, reg.eval_all(x)):
        assert a.tobytes() == b.tobytes()
    # an argument changed in place is a new argument
    x[0] = 0.02
    fresh = make_I_delta(0.05).eval_all(x)
    for a, b in zip(reg.eval_all(x), fresh):
        assert a.tobytes() == b.tobytes()


def test_eval_all_memo_keys_on_bits_and_shape():
    reg = regularize(graph_quadratic(), 0.1)
    assert not np.signbit(reg.eval_all(np.array([0.0]))[0][0])
    assert np.signbit(reg.eval_all(np.array([-0.0]))[0][0])
    assert isinstance(reg.eval_all(0.5)[0], float)
    assert reg.eval_all(np.array([0.5]))[0].shape == (1,)
    assert reg.eval_all(np.full((2, 3), 0.5))[0].shape == (2, 3)


def test_replaced_function_does_not_share_the_memo():
    reg = make_I_delta(0.05)
    assert reg.shift != 0.0
    x = np.linspace(-0.01, 0.01, 41)
    shifted = reg.eval_all(x)
    plain = replace(reg, shift=0.0).eval_all(x)
    ref = regularize(graph_indicator_halfline(), 0.05).eval_all(x)
    for a, b in zip(plain, ref):
        assert a.tobytes() == b.tobytes()
    assert not np.array_equal(plain[0], shifted[0])


@pytest.mark.parametrize("grid", ["fine", "coarse", "kinks"])
@pytest.mark.parametrize("name,params,delta", [
    pytest.param("indicator_box", {}, 0.1, id="indicator_box-params0"),
    pytest.param("quadratic", {}, 0.1, id="quadratic-params1"),
    pytest.param("logarithmic", {"c1": 1.0}, 0.1, id="logarithmic-params2"),
    pytest.param("smooth_double_well", {}, 0.1, id="smooth_double_well"),
    pytest.param("indicator_box", {}, 0.001, id="indicator_box-delta0.001"),
    pytest.param("quadratic", {}, 0.001, id="quadratic-delta0.001")])
def test_potential_on_grid_matches_per_interval_oracle(name, params, delta,
                                                       grid):
    reg = make_W_delta(make_potential(name, params), delta)
    if grid == "fine":
        # 301 points and the anchor: more segments than one evaluation takes
        xs = np.random.default_rng(3).permutation(np.linspace(-0.5, 1.5, 301))
    elif grid == "coarse":
        # several kink cuts fall inside one interval between points
        xs = np.array([1.3, -0.4, 0.2, 1.3])
    else:
        # within 3 delta^2 of the box's kinks (the log barrier's domain ends)
        rad = delta * delta
        xs = np.concatenate([k + reg.shift + np.linspace(-3 * rad, 3 * rad, 61)
                             for k in (0.0, 1.0)])
    got = reg.potential_on_grid(xs)
    ref = potential_on_grid_per_interval(reg, xs)
    scale = 1.0 + np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.xfail(strict=True, reason=(
    "make_potential('logarithmic') clips W and W' at eps_dom = 1e-9; where "
    "the prox lands in the clip (x < -0.0207 and x > 1.0207 at delta = 1e-3) "
    "the envelope form of potential_on_grid is not the integral of "
    "beta_delta: potential_on_grid minus the oracle is a constant -2.07e-8 "
    "at x = -0.4 and x = 1.3"))
def test_logarithmic_potential_on_grid_matches_oracle_beyond_eps_dom():
    reg = make_W_delta(make_potential("logarithmic", {"c1": 1.0}), 0.001)
    xs = np.append(np.linspace(-0.5, 1.5, 301), [-0.4, 1.3])
    got = reg.potential_on_grid(xs)
    ref = potential_on_grid_per_interval(reg, xs)
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("name,params", [("indicator_box", {}),
                                         ("quadratic", {}),
                                         ("logarithmic", {"c1": 1.0})])
def test_potential_on_grid_value_depends_only_on_its_point(name, params):
    reg = make_W_delta(make_potential(name, params), 0.05)
    rad = 0.05 ** 2
    xs = np.concatenate([np.linspace(-0.5, 1.5, 201),
                         np.linspace(-3 * rad, 3 * rad, 31) + reg.shift,
                         np.linspace(1 - 3 * rad, 1 + 3 * rad, 31) + reg.shift])
    batch = reg.potential_on_grid(xs)
    single = np.array([reg.potential_on_grid(xs[i:i + 1])[0]
                       for i in range(xs.size)])
    assert batch.tobytes() == single.tobytes()


# ---------------------------------------------------------------------------
# Smooth-graph prox
# ---------------------------------------------------------------------------

def test_smooth_prox_value_does_not_depend_on_the_batch():
    g = make_potential("logarithmic", {"c1": 1.0}).convex_part
    xs = np.random.default_rng(0).uniform(-0.5, 1.5, 2368)
    whole = g.yosida(0.05, xs)
    parts = np.concatenate([g.yosida(0.05, xs[i:i + 64])
                            for i in range(0, xs.size, 64)])
    assert whole.tobytes() == parts.tobytes()


@pytest.mark.parametrize("domain,f0", [((-np.inf, np.inf), 0.5),
                                       ((-np.inf, np.inf), -0.5),
                                       ((-np.inf, 1.0), 0.5),
                                       ((0.0, np.inf), -0.5)])
def test_graph_smooth_rejects_an_unbounded_side_it_cannot_bracket(domain, f0):
    # the bracket min(x, 0) - 1 needs fn(0) <= 0 on an unbounded lower side,
    # max(x, 0) + 1 needs fn(0) >= 0 on an unbounded upper side
    with pytest.raises(ValueError, match="unbounded"):
        graph_smooth("shifted_identity", lambda r: np.asarray(r) + f0,
                     np.ones_like, np.zeros_like, potential=np.zeros_like,
                     domain=domain)


def test_graph_smooth_brackets_an_unbounded_domain_in_closed_form():
    # the double well's convex part: fn(0) = 0 and prox of far points
    g = make_potential("smooth_double_well").convex_part
    xs = np.array([-1e6, -3.0, 0.0, 2.5, 1e6])
    y = g.prox(0.5, xs)
    assert np.max(np.abs(y + 0.5 * g.minimal_section(y) - xs)
                  / (1.0 + np.abs(xs))) <= 1e-14


def test_log_barrier_prox_converges_at_the_clip_point():
    # the root sits at eps_dom = 1e-9, where the barrier's derivative is
    # clipped flat but its second derivative is still about 1e9
    pot = make_potential("logarithmic", {"c1": 1.0})
    x = -0.020720092136855488
    v, d1, d2 = make_W_delta(pot, 0.001).eval_all(np.array([x]))
    assert np.all(np.isfinite([v, d1, d2]))
    g = pot.convex_part
    xs = x + np.linspace(-1e-6, 1e-6, 2001)
    y = g.prox(0.001, xs)
    assert np.max(np.abs(y + 0.001 * g.minimal_section(y) - xs)) <= 1e-12
