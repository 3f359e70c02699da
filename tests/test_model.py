import numpy as np
import pytest

from damage_sim.model import (
    MaterialLaw,
    ScalarFn,
    make_potential,
    scalar_fn,
    validate_material,
)


def test_quadratic_preset_identity_split():
    pot = make_potential("quadratic", {"ell": 0.0})
    r = np.linspace(-2, 2, 11)
    assert np.allclose(pot.breve_W(r), 0.5 * r**2)
    assert np.allclose(pot.W(r), 0.5 * r**2)
    assert pot.ell == 0.0


def test_logarithmic_preset_matches_closed_form():
    c1, c2, c3 = 1.0, 0.25, 0.1
    pot = make_potential("logarithmic", {"c1": c1, "c2": c2, "c3": c3})
    assert pot.ell == 2.0 * c1
    r = np.linspace(0.05, 0.95, 19)
    expected = r * np.log(r) + (1 - r) * np.log(1 - r) - c1 * r**2 - c2 * r - c3
    assert np.allclose(pot.W(r), expected, atol=1e-12)
    assert np.allclose(pot.dW(r), np.log(r) - np.log(1 - r) - c2 - 2 * c1 * r,
                       atol=1e-12)


def test_indicator_box_prox_is_clamp():
    pot = make_potential("indicator_box")
    x = np.array([-0.5, 0.3, 1.7])
    assert np.allclose(pot.convex_part.prox(0.7, x),
                       np.clip(x, 0.0, 1.0))
    assert not pot.smooth


def test_smooth_double_well_is_ell_convex_split():
    k = 2.5
    pot = make_potential("smooth_double_well", {"barrier": k})
    r = np.linspace(-1, 2, 301)
    assert pot.ell == k
    assert np.allclose(pot.W(r), k * r**2 * (1 - r) ** 2, atol=1e-12)
    # convexity of the convex part: second differences nonnegative
    vals = pot.breve_W(r)
    assert np.min(vals[:-2] - 2 * vals[1:-1] + vals[2:]) >= -1e-12


def test_linear_plus_derivative_is_right_derivative_at_kink():
    a = scalar_fn("linear_plus", scale=2.0)
    assert np.array_equal(a.d1(np.array([-1.0, 0.0, 0.5])), [0.0, 2.0, 2.0])


def test_unknown_preset_and_bad_params_rejected():
    with pytest.raises(ValueError):
        make_potential("nope")
    with pytest.raises(ValueError):
        make_potential("quadratic", {"ell": -1.0})
    with pytest.raises(ValueError):
        make_potential("logarithmic", {"c1": -0.5})
    with pytest.raises(ValueError):
        make_potential("quadratic", {"bogus": 1.0})


@pytest.mark.parametrize("name,params,pts", [
    ("quadratic", {}, np.linspace(-3, 3, 21)),
    ("logarithmic", {"c1": 1.0}, np.linspace(0.2, 0.8, 13)),
    ("smooth_double_well", {"barrier": 1.5}, np.linspace(-0.5, 1.5, 21)),
])
def test_prox_based_derivative_matches_analytic(name, params, pts):
    pot = make_potential(name, params)
    graph = pot.convex_part
    # Richardson-extrapolated Yosida values kill the O(delta) bias without
    # the subtractive cancellation of a tiny resolvent parameter
    delta = 1e-6
    y1 = (pts - graph.prox(delta, pts)) / delta
    y2 = (pts - graph.prox(2 * delta, pts)) / (2 * delta)
    yos = 2.0 * y1 - y2
    assert np.max(np.abs(yos - pot.breve_dW(pts))) <= 1e-8 * (
        1.0 + np.max(np.abs(pot.breve_dW(pts))))


def test_prox_firmly_nonexpansive_on_sampled_pairs():
    rng = np.random.default_rng(7)
    for name, params in (("quadratic", {}), ("indicator_box", {}),
                         ("logarithmic", {"c1": 1.0}),
                         ("smooth_double_well", {"barrier": 1.0})):
        graph = make_potential(name, params).convex_part
        x = rng.uniform(-2, 3, 50)
        y = rng.uniform(-2, 3, 50)
        px = graph.prox(0.37, x)
        py = graph.prox(0.37, y)
        assert np.all(np.abs(px - py) <= np.abs(x - y) + 1e-12)
        order = np.argsort(x)
        assert np.all(np.diff(px[order]) >= -1e-12)


def _law(a_name="quadratic_plus", **kw):
    return MaterialLaw(a=scalar_fn(a_name), b=scalar_fn("constant"), **kw)


def test_validate_material_shape_checks_pass():
    law = _law()
    grid = np.arange(-1.0, 1.0 + 0.005, 0.01)
    report = validate_material(law, grid)
    assert report.passed
    assert report.degradation_shape_ok()


def test_validate_material_identity_a_fails_vanishing():
    law = _law("identity")
    report = validate_material(law, np.linspace(-1, 1, 201))
    chk = report["a_vanishing_nonpositive"]
    assert not chk.passed
    assert chk.witness is not None and chk.witness <= 0.0
    assert not report.degradation_shape_ok()


def test_validate_material_is_deterministic():
    law = _law()
    grid = np.linspace(-5, 5, 501)
    r1 = validate_material(law, grid).to_dict()
    r2 = validate_material(law, grid).to_dict()
    assert r1 == r2


def test_material_invariants_enforced():
    with pytest.raises(ValueError):
        _law(C=-1.0)
    with pytest.raises(ValueError):
        _law(b_floor=0.0)
    with pytest.raises(ValueError):
        _law(gamma1=-0.1)


def test_scalar_fn_requires_both_derivatives():
    with pytest.raises(TypeError):
        ScalarFn("f", np.square)
    with pytest.raises(TypeError):
        ScalarFn("f", np.square, lambda r: 2.0 * r)
