"""Constitutive data for the 1D damage-viscoelasticity system.

The material bundle carries the damage modulations a (elastic) and b
(viscous), the scalar elasticity/viscosity moduli C and V, and the three
Robin boundary coefficients gamma0, gamma1, gamma2.

The double-well potential is always handled through its convex/concave
split W(r) = W_breve(r) - ell/2 r^2 with W_breve convex, possibly nonsmooth
and carried by a proximal rule; the semiconvexity constant ell >= 0 is a
field of the split, and of nothing else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .forcing import BoundaryForcing, Forcing
from .regularization import (
    MonotoneGraph,
    graph_indicator_box,
    graph_quadratic,
    graph_smooth,
)

__all__ = [
    "ScalarFn",
    "scalar_fn",
    "MaterialLaw",
    "PotentialSplit",
    "make_potential",
    "ValidationReport",
    "CheckResult",
    "validate_material",
    "Tolerances",
    "StrongSettings",
    "CompareSettings",
    "RegularizeDemoSettings",
    "ScenarioConfig",
]


@dataclass(frozen=True)
class ScalarFn:
    """A scalar function with its first and second derivatives."""

    name: str
    f: Callable
    d1: Callable
    d2: Callable

    def __call__(self, r):
        return self.f(np.asarray(r, dtype=float))


def _arr(r):
    return np.asarray(r, dtype=float)


_SCALAR_PRESETS = {
    "constant": lambda value=1.0: ScalarFn(
        f"constant({value:g})",
        lambda r, v=value: np.full_like(_arr(r), v),
        lambda r: np.zeros_like(_arr(r)),
        lambda r: np.zeros_like(_arr(r)),
    ),
    "identity": lambda: ScalarFn(
        "identity",
        lambda r: _arr(r),
        lambda r: np.ones_like(_arr(r)),
        lambda r: np.zeros_like(_arr(r)),
    ),
    # d1 is the right derivative, s at the kink r = 0: a minimizer of the
    # damage step that rests on a lower bound 0 then passes the KKT test
    "linear_plus": lambda scale=1.0: ScalarFn(
        f"linear_plus({scale:g})",
        lambda r, s=scale: s * np.maximum(_arr(r), 0.0),
        lambda r, s=scale: s * (_arr(r) >= 0.0).astype(float),
        lambda r: np.zeros_like(_arr(r)),
    ),
    # max(r,0)^2: C^1, convex, vanishing on the negative axis
    "quadratic_plus": lambda scale=1.0: ScalarFn(
        f"quadratic_plus({scale:g})",
        lambda r, s=scale: s * np.maximum(_arr(r), 0.0) ** 2,
        lambda r, s=scale: 2.0 * s * np.maximum(_arr(r), 0.0),
        lambda r, s=scale: 2.0 * s * (_arr(r) > 0.0).astype(float),
    ),
    # max(r,0)^3: additionally C^2, as the strong mode requires
    "cubic_plus": lambda scale=1.0: ScalarFn(
        f"cubic_plus({scale:g})",
        lambda r, s=scale: s * np.maximum(_arr(r), 0.0) ** 3,
        lambda r, s=scale: 3.0 * s * np.maximum(_arr(r), 0.0) ** 2,
        lambda r, s=scale: 6.0 * s * np.maximum(_arr(r), 0.0),
    ),
    # b(r) = floor + scale * r^2: smooth with a global positive floor
    "quadratic_floor": lambda floor=1.0, scale=0.0: ScalarFn(
        f"quadratic_floor({floor:g},{scale:g})",
        lambda r, b0=floor, s=scale: b0 + s * _arr(r) ** 2,
        lambda r, s=scale: 2.0 * s * _arr(r),
        lambda r, s=scale: np.full_like(_arr(r), 2.0 * s),
    ),
}


def scalar_fn(name: str, **params) -> ScalarFn:
    """Build a named scalar-function preset (a- and b-coefficient shapes)."""
    try:
        factory = _SCALAR_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown scalar function preset {name!r}") from None
    return factory(**params)


@dataclass(frozen=True)
class MaterialLaw:
    """Constitutive bundle for the momentum balance and damage flow rule."""

    a: ScalarFn
    b: ScalarFn
    b_floor: float = 1.0
    C: float = 1.0
    V: float = 1.0
    gamma0: float = 1.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.C <= 0 or self.V <= 0:
            raise ValueError("C and V must be positive")
        if self.b_floor <= 0:
            raise ValueError("b_floor must be positive")
        if min(self.gamma0, self.gamma1, self.gamma2) < 0:
            raise ValueError("boundary coefficients must be nonnegative")

    # Robin data enter the weak form divided by gamma0; gamma0 = 1 recovers
    # the plain form of the boundary terms.
    @property
    def gamma1_eff(self) -> float:
        return self.gamma1 / self.gamma0

    @property
    def gamma2_eff(self) -> float:
        return self.gamma2 / self.gamma0


@dataclass(frozen=True)
class PotentialSplit:
    """Convex/concave split W = W_breve + W_check, W_check(r) = -ell/2 r^2."""

    convex_part: MonotoneGraph
    ell: float
    name: str = ""

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")

    @property
    def smooth(self) -> bool:
        return self.convex_part.derivative is not None

    def breve_W(self, r):
        return self.convex_part.potential(_arr(r))

    def breve_dW(self, r):
        if not self.smooth:
            raise ValueError(f"convex part of {self.name!r} is not smooth")
        return self.convex_part.minimal_section(_arr(r))

    def concave_dW(self, r):
        return -self.ell * _arr(r)

    def W(self, r):
        return self.breve_W(r) - 0.5 * self.ell * _arr(r) ** 2

    def dW(self, r):
        return self.breve_dW(r) + self.concave_dW(r)


def make_potential(name: str, params: Optional[dict] = None) -> PotentialSplit:
    """Build one of the potential presets.

    quadratic          W_breve(r) = (r - center)^2 / 2, ell free (default 0)
    logarithmic        W(r) = r ln r + (1-r) ln(1-r) - c1 r^2 - c2 r - c3,
                       split with ell = 2 c1
    indicator_box      W_breve = indicator of [0, 1], ell free (default 0)
    smooth_double_well W(r) = k r^2 (1-r)^2, split with ell = k so that
                       W_breve(r) = W(r) + k/2 r^2 has W_breve'' = 3k(2r-1)^2
    """
    params = dict(params or {})

    def _pop(key, default):
        value = params.pop(key, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"bad value for potential parameter {key!r}: "
                             f"{value!r}") from None

    if name == "quadratic":
        ell = _pop("ell", 0.0)
        center = _pop("center", 0.0)
        _reject_extra(name, params)
        return PotentialSplit(graph_quadratic(slope=1.0, center=center), ell,
                              name="quadratic")

    if name == "logarithmic":
        c1 = _pop("c1", 1.0)
        c2 = _pop("c2", 0.0)
        c3 = _pop("c3", 0.0)
        eps_dom = 1e-9
        _reject_extra(name, params)
        if c1 < 0:
            raise ValueError("c1 must be nonnegative for an l-convex split")

        def _clip(r):
            return np.clip(_arr(r), eps_dom, 1.0 - eps_dom)

        def _val(r):
            # finite continuous extension on [0, 1], +inf outside the domain
            r = _arr(r)
            rc = _clip(r)
            vals = rc * np.log(rc) + (1.0 - rc) * np.log(1.0 - rc) - c2 * rc - c3
            return np.where((r < -1e-14) | (r > 1.0 + 1e-14), np.inf, vals)

        def _d1(r):
            rc = _clip(r)
            return np.log(rc) - np.log(1.0 - rc) - c2

        def _d2(r):
            rc = _clip(r)
            return 1.0 / rc + 1.0 / (1.0 - rc)

        def _d3(r):
            rc = _clip(r)
            return 1.0 / (1.0 - rc) ** 2 - 1.0 / rc**2

        graph = graph_smooth("log_barrier", _d1, _d2, _d3, potential=_val,
                             domain=(0.0, 1.0), anchor=0.5)
        return PotentialSplit(graph, 2.0 * c1, name="logarithmic")

    if name == "indicator_box":
        ell = _pop("ell", 0.0)
        _reject_extra(name, params)
        return PotentialSplit(graph_indicator_box(), ell,
                              name="indicator_box")

    if name == "smooth_double_well":
        k = _pop("barrier", 1.0)
        _reject_extra(name, params)
        if k <= 0:
            raise ValueError("barrier height must be positive")

        def _val(r):
            r = _arr(r)
            return k * r**2 * (1.0 - r) ** 2 + 0.5 * k * r**2

        def _d1(r):
            r = _arr(r)
            return k * (4.0 * r**3 - 6.0 * r**2 + 3.0 * r)

        def _d2(r):
            r = _arr(r)
            return 3.0 * k * (2.0 * r - 1.0) ** 2

        def _d3(r):
            r = _arr(r)
            return 12.0 * k * (2.0 * r - 1.0)

        graph = graph_smooth("double_well_convex", _d1, _d2, _d3, potential=_val,
                             domain=(-math.inf, math.inf), anchor=0.0)
        return PotentialSplit(graph, k, name="smooth_double_well")

    raise ValueError(f"unknown potential preset {name!r}")


def _reject_extra(name, params):
    if params:
        raise ValueError(f"unexpected parameters for preset {name!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# Constitutive validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[float] = None
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def degradation_shape_ok(self) -> bool:
        """Shape of a that makes positivity of chi a property of the
        minimizer: nondecreasing, zero on the negative axis, convex."""
        return all(self[n].passed for n in
                   ("a_nondecreasing", "a_vanishing_nonpositive", "a_convex"))

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def default_validation_grid() -> np.ndarray:
    return np.linspace(-10.0, 10.0, 2001)


def validate_material(law: MaterialLaw, grid=None,
                      tol: float = 1e-9) -> ValidationReport:
    """Check the constitutive assumptions on a sample grid.

    Four pointwise conditions are certified on the grid, with a witness
    point on failure: a is nondecreasing, vanishes on the negative axis and
    is convex (second differences), and b stays above its floor.  C, V > 0
    and gamma_i >= 0 need no check, since ``MaterialLaw`` rejects the rest.
    """
    grid = default_validation_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    grid = np.sort(grid)
    checks = []

    def add(name, ok_mask, values=None, detail=""):
        ok = bool(np.all(ok_mask))
        witness = None
        if not ok:
            idx = int(np.argmin(ok_mask.astype(int)))
            witness = float(grid[idx] if values is None else values[idx])
        checks.append(CheckResult(name, ok, witness, detail))

    scale = float(np.max(np.abs(grid))) + 1.0

    av = law.a(grid)
    da = np.diff(av)
    add("a_nondecreasing", da >= -tol * scale, values=grid[:-1])
    neg = grid <= 0.0
    add("a_vanishing_nonpositive",
        np.where(neg, np.abs(av) <= tol, True))
    d2 = av[:-2] - 2.0 * av[1:-1] + av[2:]
    add("a_convex", d2 >= -tol * scale, values=grid[1:-1])

    bv = law.b(grid)
    add("b_floor", bv >= law.b_floor - tol, detail=f"floor={law.b_floor:g}")
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    inner: float = 1e-10       # damage-minimization KKT residual
    lin: float = 1e-12         # relative residual of momentum solves
    eig: float = 1e-9          # eigenpair residual (M^{-1} dual norm)
    ode: float = 1e-8          # strong-mode stage residual
    mono: float = 1e-10        # unidirectionality slack chi_t <= tol


@dataclass(frozen=True)
class StrongSettings:
    """Parameters of the regularized spectral mode, including the
    regularization pair (delta, nu) with delta in (0, 1) and nu > 0.

    ``varpi0`` is the initial datum for omega_t: a constant, or the string
    "slaved" for the compatible value obtained by solving the quasi-static
    (nu = 0) flow rule at t = 0, which removes the initial fast layer and
    restores clean second-order energy balance.
    """

    n_modes: int = 12
    delta: float = 0.125
    nu: float = 2.0 ** -12
    steps: int = 200           # ODE steps to reach T
    schedule_n: Optional[int] = None   # overrides (delta, nu) when set
    varpi0: object = 0.0       # constant, or "slaved"
    psi_max: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.nu <= 0.0:
            raise ValueError("nu must be positive")

    def resolved(self) -> "StrongSettings":
        if self.schedule_n is None:
            return self
        n = int(self.schedule_n)
        # nu_n^(1/2)/delta_n = 2^-n -> 0 along the schedule
        return replace(self, delta=2.0 ** -n, nu=2.0 ** (-4 * n), schedule_n=n)


@dataclass(frozen=True)
class CompareSettings:
    """Refinement of the strong surrogate and the REI constant; the
    surrogate's other settings are ``ScenarioConfig.strong``."""

    refine_space: int = 4
    refine_time: int = 4
    c_rei: float = 1.0


@dataclass(frozen=True)
class RegularizeDemoSettings:
    """One table per delta for a named graph on a uniform grid."""

    graph: str = "indicator_halfline"
    deltas: tuple = (0.2, 0.1, 0.05)
    grid_lo: float = -2.0
    grid_hi: float = 2.0
    grid_n: int = 401


def _as_nodal(data, nodes: np.ndarray) -> np.ndarray:
    if callable(data):
        return np.asarray(data(nodes), dtype=float)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full_like(nodes, float(arr))
    if arr.shape != nodes.shape:
        raise ValueError(f"nodal data shape {arr.shape} != mesh shape {nodes.shape}")
    return arr.copy()


@dataclass
class ScenarioConfig:
    """Everything one run needs: mesh, time grid, physics, data, tolerances."""

    material: MaterialLaw
    potential: PotentialSplit
    N: int = 201
    L: float = 1.0
    T: float = 1.0
    K: int = 400
    u0: object = 0.0           # nodal array or callable of x
    v0: object = 0.0
    chi0: object = 1.0
    forcing: Forcing = field(default_factory=Forcing.zero)
    boundary: BoundaryForcing = field(default_factory=BoundaryForcing.zero)
    mode: str = "weak"
    tolerances: Tolerances = field(default_factory=Tolerances)
    strong: StrongSettings = field(default_factory=StrongSettings)
    compare: CompareSettings = field(default_factory=CompareSettings)
    regularize: RegularizeDemoSettings = field(
        default_factory=RegularizeDemoSettings)
    output_stride: int = 1
    label: str = ""

    @property
    def tau(self) -> float:
        return self.T / self.K

    def initial_fields(self, nodes: np.ndarray):
        return (_as_nodal(self.u0, nodes), _as_nodal(self.v0, nodes),
                _as_nodal(self.chi0, nodes))

    def validate(self, nodes: np.ndarray, mode: Optional[str] = None) -> None:
        mode = self.mode if mode is None else mode
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.output_stride < 1:
            raise ValueError("output stride must be at least 1")
        _, _, chi0 = self.initial_fields(nodes)
        if np.min(chi0) < 0.0 or np.max(chi0) > 1.0:
            raise ValueError("chi0 must take values in [0, 1]")
        if self.material.gamma0 <= 0.0:
            raise ValueError(
                "gamma0 must be positive; Dirichlet loadings are emulated "
                "through large gamma1/gamma2 Robin penalization")
        if mode == "compare" and not self.potential.smooth:
            raise ValueError(
                "compare mode needs a smooth potential for the relative "
                f"energy; {self.potential.name!r} is not")
        if mode in ("strong", "compare"):
            m = self.material
            if m.gamma1 != 0.0 or m.gamma2 != 0.0:
                raise ValueError("strong mode requires gamma1 = gamma2 = 0")
            if not self.boundary.is_zero:
                raise ValueError("strong mode requires homogeneous Neumann data")
            if m.C != m.V:
                raise ValueError("strong mode requires matching moduli C = V")
