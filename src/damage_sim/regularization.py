"""Resolvents, Yosida approximations, and mollified smooth regularizations.

A maximal monotone operator beta on the real line is carried by its proximal
rule  prox(lam, x) = argmin_y ( |y - x|^2 / (2 lam) + beta_hat(y) ),  lam > 0,
which coincides with the resolvent J_lam = (I + lam beta)^{-1}.  From it we
form

  * the Yosida approximation   beta_Y_delta(x) = (x - J_delta(x)) / delta,
    monotone and (1/delta)-Lipschitz;
  * the mollified regularization
        beta_delta = beta_Y_delta * rho_delta,
    where rho_delta(y) = rho(y / delta^2) / delta^2 and rho is a smooth even
    kernel with unit mass supported in [-1, 1].

The mollified function is C^infinity and satisfies, with C_rho = ||rho'||_L1,

  (i)   |beta_delta - beta_Y_delta| <= delta            (Lip 1/delta, radius delta^2)
  (ii)  |beta_delta'|               <= 1/delta
  (iii) |beta_delta''|              <= C_rho / delta^3
  (iv)  potential sandwich: with the anchor beta_hat_delta(x0) equal to the
        Moreau envelope at x0,
            envelope(x) - delta |x - x0|  <=  beta_hat_delta(x)
                                          <=  beta_hat(x) + delta |x - x0|.

All four bounds are testable via :func:`regularization_property_check`.

Evaluation strategy: graphs whose Yosida approximation is piecewise affine
(indicator graphs) get closed-form mollified values through the cumulative
kernel moments F(w) = int_{-1}^w rho, G(w) = int_{-1}^w z rho(z) dz, whose
tables are evaluated only at points that see a kink inside the kernel
support (|w| < 1); every other point takes their exact end values, so a
call costs a few array operations per kink.  Affine Yosida functions pass
through mollification unchanged.  The smooth graphs (the convex parts of the
logarithmic and double-well potentials) go through one 6-point Gauss rule
with weight rho (nodes z_j, weights w_j) and the chain rule through one prox
call: with J_j = J_delta(x - delta^2 z_j) and b_j = 1 + delta beta'(J_j),
beta_delta' = sum_j w_j beta'(J_j) / b_j and beta_delta'' = sum_j w_j
beta''(J_j) / b_j^3, so no sign-changing kernel is integrated.
``eval_all`` remembers its last argument and result, because the strong
solver asks again for the iterate it has just evaluated.  The anchored
potential needs no integral over x: beta_Y_delta is the derivative of the
Moreau envelope e_delta, so beta_delta is the derivative of rho_delta * e_delta,
and each point's value is that mollified envelope at the point minus its
value at the anchor.  The envelope is quadratic for affine Yosida functions,
piecewise quadratic for piecewise-affine ones (closed form with the third
moment H(w) = int_{-1}^w z^2 rho(z) dz), and goes through the same Gauss
rule for the smooth graphs.

The standard mollifier is built with numpy alone: the moment tables by the
endpoint-corrected trapezoid rule (Euler-Maclaurin) on a uniform grid of
8,193 nodes, evaluated by cubic Hermite interpolation with the exact slopes
(Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984), and
the Gauss rule from the discrete measure rho(z_i) on the same grid (Golub &
Welsch, Math. Comp. 23, 1969; Gautschi, Orthogonal Polynomials, 2004).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MonotoneGraph",
    "Mollifier",
    "RegularizedFunction",
    "PropertyReport",
    "graph_indicator_halfline",
    "graph_indicator_box",
    "graph_quadratic",
    "graph_smooth",
    "standard_mollifier",
    "regularize",
    "regularization_property_check",
    "make_W_delta",
    "make_I_delta",
]

# Points of the Gauss rule with weight rho that mollifies the smooth graphs.
_RULE_POINTS = 6


class ProxError(RuntimeError):
    """Raised when a proximal rule fails to converge."""


# ---------------------------------------------------------------------------
# Monotone graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneGraph:
    """A maximal monotone operator given by its proximal/resolvent rule.

    Attributes
    ----------
    prox : callable(lam, x) -> y
        Resolvent J_lam(x); must accept numpy arrays in both arguments.
    potential : callable
        The convex potential beta_hat (np.inf outside its domain).
    minimal_section : callable
        The minimal-norm selection beta^o(x) (nan outside the domain of
        beta); for smooth single-valued graphs this is beta itself.
    derivative, second_derivative : callable or None
        beta' and beta'' for single-valued smooth graphs only.
    kinks : tuple of float
        Nonsmooth points of the Yosida approximation (independent of delta
        for indicator-type graphs).
    domain : (lo, hi)
        Domain of the potential.
    anchor : float
        Interior point used to anchor regularized potentials.
    affine_yosida : (slope, root) or None
        Set when J_delta is affine for every delta: beta_Y(x) =
        slope/(1+delta*slope) * (x - root); mollification is then exact.
    """

    name: str
    prox: Callable
    potential: Callable
    minimal_section: Callable
    derivative: Optional[Callable] = None
    second_derivative: Optional[Callable] = None
    kinks: tuple = ()
    domain: tuple = (-np.inf, np.inf)
    anchor: float = 0.0
    affine_yosida: Optional[tuple] = None
    # slope changes of the Yosida at each kink, in units of 1/delta
    # (piecewise-affine graphs only): beta_Y = base_slope/delta * x
    #   + sum_i jump_i/delta * max(x - kink_i, 0)
    pw_base_slope: Optional[float] = None
    pw_jumps: Optional[tuple] = None

    def yosida(self, delta: float, x):
        x = np.asarray(x, dtype=float)
        return (x - self.prox(delta, x)) / delta


def graph_indicator_halfline() -> MonotoneGraph:
    """Subdifferential of the indicator of (-inf, 0]."""
    return MonotoneGraph(
        name="indicator_halfline",
        prox=lambda lam, x: np.minimum(np.asarray(x, dtype=float), 0.0),
        potential=lambda x: np.where(np.asarray(x, dtype=float) <= 0.0, 0.0, np.inf),
        minimal_section=lambda x: np.where(np.asarray(x, dtype=float) <= 0.0, 0.0, np.nan),
        kinks=(0.0,),
        domain=(-np.inf, 0.0),
        anchor=0.0,
        pw_base_slope=0.0,
        pw_jumps=(1.0,),
    )


def graph_indicator_box() -> MonotoneGraph:
    """Subdifferential of the indicator of [0, 1]; prox is the clamp.  The
    Yosida base term pw_base_slope/delta * x assumes the lower end 0."""

    def _pot(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, np.inf)

    def _sec(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, np.nan)

    return MonotoneGraph(
        name="indicator_box[0,1]",
        prox=lambda lam, x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0),
        potential=_pot,
        minimal_section=_sec,
        kinks=(0.0, 1.0),
        domain=(0.0, 1.0),
        anchor=0.5,
        pw_base_slope=1.0,
        pw_jumps=(-1.0, 1.0),
    )


def graph_quadratic(slope: float = 1.0, center: float = 0.0) -> MonotoneGraph:
    """Derivative of the quadratic slope/2 * (r - center)^2."""
    if slope < 0:
        raise ValueError("slope must be nonnegative")

    def _prox(lam, x):
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        return (x + lam * slope * center) / (1.0 + lam * slope)

    return MonotoneGraph(
        name=f"quadratic(slope={slope:g})",
        prox=_prox,
        potential=lambda x: 0.5 * slope * (np.asarray(x, dtype=float) - center) ** 2,
        minimal_section=lambda x: slope * (np.asarray(x, dtype=float) - center),
        derivative=lambda x: np.full_like(np.asarray(x, dtype=float), slope),
        domain=(-np.inf, np.inf),
        anchor=center,
        affine_yosida=(slope, center),
    )


def graph_smooth(
    name: str,
    fn: Callable,
    dfn: Callable,
    d2fn: Callable,
    potential: Callable,
    domain: tuple = (-np.inf, np.inf),
    anchor: float = 0.0,
) -> MonotoneGraph:
    """Graph of a smooth increasing function beta = fn with beta' = dfn,
    beta'' = d2fn and convex potential ``potential``.

    The prox rule is a safeguarded vectorized Newton iteration on
    y + lam * fn(y) = x restricted to the open domain.  A finite domain end
    bounds the bracket of the root; an unbounded lower side is bracketed by
    min(x, 0) - 1, which needs fn(0) <= 0, and an unbounded upper side by
    max(x, 0) + 1, which needs fn(0) >= 0.  A graph that breaks either
    condition is rejected with ValueError.  Each point leaves the
    iteration on its own test, so its value does not depend on the other
    points of the call.  A Newton step that keeps the sign of the
    residual and does not halve it is replaced by a bisection of the bracket
    at the next iteration: where fn is clipped near a domain end, dfn need not
    be its derivative, and Newton would crawl.
    """
    lo, hi = domain
    if (np.isinf(lo) and fn(0.0) > 0.0) or (np.isinf(hi) and fn(0.0) < 0.0):
        raise ValueError(f"graph {name!r}: fn(0) must be <= 0 on an unbounded "
                         "lower side and >= 0 on an unbounded upper side")

    def _prox(lam, x):
        x = np.asarray(x, dtype=float)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape).copy()
        pad = 1e-12 if np.isfinite(lo) or np.isfinite(hi) else 0.0
        ylo = (np.full(x.shape, lo + pad) if np.isfinite(lo)
               else np.minimum(x, 0.0) - 1.0)
        yhi = (np.full(x.shape, hi - pad) if np.isfinite(hi)
               else np.maximum(x, 0.0) + 1.0)
        y = np.clip(x, ylo, yhi)
        live = np.ones(x.shape, dtype=bool)
        r_old = np.zeros(x.shape)
        for _ in range(100):
            r = y + lam * fn(y) - x
            # maintain a bisection bracket: the residual is increasing in y
            ylo = np.where(r < 0, y, ylo)
            yhi = np.where(r > 0, y, yhi)
            dr = 1.0 + lam * dfn(y)
            step = r / np.maximum(dr, 1e-30)
            ynew = y - step
            # slow: r kept the sign of r_old and |r| > |r_old| / 2
            slow = r * r_old > 0.5 * r_old * r_old
            bad = (ynew <= ylo) | (ynew >= yhi) | slow
            ynew = np.where(bad, 0.5 * (ylo + yhi), ynew)
            done = np.abs(ynew - y) < 1e-15 * (1.0 + np.abs(y))
            y = np.where(live, ynew, y)
            live &= ~done
            if not live.any():
                break
            r_old = r
        else:
            r = y + lam * fn(y) - x
            if np.max(np.abs(r)) > 1e-9 * (1.0 + np.max(np.abs(x))):
                raise ProxError(f"prox Newton failed for graph {name!r}")
        return y

    return MonotoneGraph(
        name=name,
        prox=_prox,
        potential=potential,
        minimal_section=fn,
        derivative=dfn,
        second_derivative=d2fn,
        domain=domain,
        anchor=anchor,
    )


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

def _bump_raw(z):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(-1.0 / (1.0 - zi * zi))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Smooth even kernel with unit mass and support in [-1, 1].

    Carries the derivative kernel, the interpolated tables of the
    cumulative moments F(w) = int_{-1}^w rho, G(w) = int_{-1}^w z rho(z) dz
    and H(w) = int_{-1}^w z^2 rho(z) dz used by the closed-form
    mollification of piecewise-affine functions (F and G) and of their
    piecewise-quadratic Moreau envelopes (all three), and the Gauss rule
    with weight rho (``nodes``, ``weights``) for smooth functions.
    """

    rho: Callable
    drho: Callable
    c_hat: float                 # ||rho'||_L1
    cum_F: Callable = field(repr=False)
    cum_G: Callable = field(repr=False)
    cum_H: Callable = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @cached_property
    def _ends(self):
        """(value at w = -1, value at w = 1) of each of F, G, H, taken from
        the tables."""
        return tuple((s(-1.0), s(1.0))
                     for s in (self.cum_F, self.cum_G, self.cum_H))

    def moments(self, w, count: int = 2):
        """The first ``count`` of (F(w), G(w), H(w)), constant outside
        [-1, 1]: the tables run only at the points with |w| < 1 (and NaN,
        which they propagate)."""
        above = w >= 1.0
        out = [np.where(above, hi, lo) for lo, hi in self._ends[:count]]
        near = ~(above | (w <= -1.0))
        if near.any():
            wn = w[near]
            for o, s in zip(out, (self.cum_F, self.cum_G, self.cum_H)):
                o[near] = s(wn)
        return out


def _hermite(z, y, slope):
    """Cubic Hermite interpolant of the values y with the slopes ``slope`` at
    the uniform nodes z, as a callable.

    One Horner row (y_i, m_i, c2_i, c3_i) per node, stored as four
    contiguous arrays; the last node's row is its constant value, so every
    node evaluates to its tabulated value exactly (t = 0) and points beyond
    the last node take that value.  ``searchsorted`` sends NaN to the last
    row, where t is NaN and so is the result.
    """
    h = z[1] - z[0]
    secant = np.diff(y) / h
    coef = np.zeros((4, z.size))
    coef[0] = y
    coef[1, :-1] = slope[:-1]
    coef[2, :-1] = (3.0 * secant - 2.0 * slope[:-1] - slope[1:]) / h
    coef[3, :-1] = (slope[:-1] + slope[1:] - 2.0 * secant) / (h * h)
    a0, a1, a2, a3 = coef

    def evaluate(w):
        w = np.asarray(w, dtype=float)
        i = np.maximum(np.searchsorted(z, w, side="right") - 1, 0)
        t = w - z[i]
        return a0[i] + t * (a1[i] + t * (a2[i] + t * a3[i]))

    return evaluate


def _gauss_rule(z, mu, n):
    """Nodes and weights of the n-point Gauss rule of the even discrete
    measure mu (unit mass) on z: the Stieltjes procedure for the recurrence
    p_{k+1} = z p_k - b_k p_{k-1}, b_k = |p_k|^2 / |p_{k-1}|^2 (no diagonal
    term, mu being even), then the eigenpairs of its Jacobi matrix."""
    p_prev, p = np.zeros_like(z), np.ones_like(z)
    norms = [1.0]
    for k in range(n - 1):
        b = norms[k] / norms[k - 1] if k else 0.0
        p_prev, p = p, z * p - b * p_prev
        norms.append(float(np.dot(mu, p * p)))
    off = np.sqrt(np.array(norms[1:]) / np.array(norms[:-1]))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2


# Mass of the raw bump, as adaptive quadrature to 1e-14 gives it: rho's bits,
# and tests that sit at round-off, depend on its last digit.
_BUMP_MASS = 0.4439938161680793


def _build_standard_mollifier() -> Mollifier:
    c = 1.0 / _BUMP_MASS

    def rho(z):
        return c * _bump_raw(z)

    def drho(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        om = 1.0 - zi * zi
        out[inside] = c * np.exp(-1.0 / om) * (-2.0 * zi / om**2)
        return out

    # |rho'| integrates to 2 rho(0): rho increases on (-1,0), decreases after
    c_hat = 2.0 * float(rho(np.array([0.0]))[0])

    # F, G and H at the nodes by the endpoint-corrected trapezoid rule
    # (Euler-Maclaurin), cell by cell, with the integrand's exact derivative
    z = np.linspace(-1.0, 1.0, 8193)
    h = z[1] - z[0]
    r, dr = rho(z), drho(z)

    def cumulative(f, df):
        cells = 0.5 * h * (f[:-1] + f[1:]) + h * h / 12.0 * (df[:-1] - df[1:])
        return np.concatenate([[0.0], np.cumsum(cells)])

    F = cumulative(r, dr)
    zr, zzr = z * r, z * z * r
    nodes, weights = _gauss_rule(z, r / np.sum(r), _RULE_POINTS)
    # F(1) = 1 exactly; its slopes scale with it
    return Mollifier(rho=rho, drho=drho, c_hat=c_hat,
                     cum_F=_hermite(z, F / F[-1], r / F[-1]),
                     cum_G=_hermite(z, cumulative(zr, r + z * dr), zr),
                     cum_H=_hermite(z, cumulative(zzr, 2.0 * zr + z * z * dr),
                                    zzr),
                     nodes=nodes, weights=weights)


_STANDARD_MOLLIFIER: Optional[Mollifier] = None


def standard_mollifier() -> Mollifier:
    """The normalized bump exp(-1/(1-z^2)) on (-1, 1), built once."""
    global _STANDARD_MOLLIFIER
    if _STANDARD_MOLLIFIER is None:
        _STANDARD_MOLLIFIER = _build_standard_mollifier()
    return _STANDARD_MOLLIFIER


# ---------------------------------------------------------------------------
# Regularized function beta_delta = (Yosida) * rho_delta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularizedFunction:
    """Smoothed Yosida regularization of a monotone graph.

    ``eval_all`` evaluates beta_delta and its first two derivatives.  The
    optional ``shift``/``vshift`` implement the normalization beta_delta(0)=0
    (argument translation for indicator-type graphs, vertical translation for
    smooth ones); all quantitative bounds then hold relative to the shifted
    reference Yosida ``ref_yosida``, by translation covariance.
    """

    graph: MonotoneGraph
    delta: float
    mollifier: Mollifier
    shift: float = 0.0
    vshift: float = 0.0
    # (shape, bytes) of the last eval_all argument and its result; not an
    # init field, so dataclasses.replace starts the new function without it
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    # -- reference objects ---------------------------------------------------
    def ref_yosida(self, x):
        x = np.asarray(x, dtype=float)
        return self.graph.yosida(self.delta, x - self.shift) - self.vshift

    def _envelope(self, y):
        """Moreau envelope e_delta of the parent potential at y, unshifted."""
        j = self.graph.prox(self.delta, y)
        return (y - j) ** 2 / (2.0 * self.delta) + self.graph.potential(j)

    def ref_envelope(self, x):
        """Moreau envelope of the parent potential, shifted consistently."""
        x = np.asarray(x, dtype=float)
        return (self._envelope(x - self.shift)
                - self.vshift * (x - self.graph.anchor))

    def ref_potential(self, x):
        x = np.asarray(x, dtype=float)
        return (self.graph.potential(x - self.shift)
                - self.vshift * (x - self.graph.anchor))

    # -- evaluation ----------------------------------------------------------
    def _raw_all(self, xs):
        """(value, d1, d2) of the unshifted mollified Yosida at points xs."""
        g, d, m = self.graph, self.delta, self.mollifier
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if g.affine_yosida is not None:
            slope, root = g.affine_yosida
            eff = slope / (1.0 + d * slope)
            return eff * (xs - root), np.full_like(xs, eff), np.zeros_like(xs)
        if g.pw_jumps is not None:
            b0 = g.pw_base_slope / d
            v = b0 * xs
            d1 = np.full_like(xs, b0)
            d2 = np.zeros_like(xs)
            for k, jump in zip(g.kinks, g.pw_jumps):
                s = jump / d
                w = (xs - k) / (d * d)
                F, G = m.moments(w)
                v += s * ((xs - k) * F - d * d * G)
                d1 += s * F
                inside = np.abs(w) < 1.0
                if inside.any():
                    d2[inside] += s * m.rho(w[inside]) / (d * d)
            return v, d1, d2
        y = self._rule_points(xs)
        j = g.prox(d, y)
        slope = g.derivative(j)
        b = 1.0 + d * slope
        return [np.sum(m.weights * f, axis=-1) for f in
                ((y - j) / d, slope / b, g.second_derivative(j) / b**3)]

    def _rule_points(self, xs):
        """xs - delta^2 z_j, shaped xs.shape + (nodes,).  Sums over the last
        axis, not a BLAS product, keep each point's bits its own."""
        return xs[..., None] - self.delta**2 * self.mollifier.nodes

    def eval_all(self, x):
        """Return (beta_delta, beta_delta', beta_delta'') at x.

        A call whose argument has the shape and the bits of the previous
        call's argument returns the remembered result; arrays are returned
        as fresh copies, so a caller that writes into them changes nothing
        here.
        """
        x = np.asarray(x, dtype=float)
        key, memo = (x.shape, x.tobytes()), self._memo
        if memo is None or memo[0] != key:
            v, d1, d2 = self._raw_all(np.atleast_1d(x) - self.shift)
            memo = (key, (v - self.vshift, d1, d2))
            object.__setattr__(self, "_memo", memo)
        v, d1, d2 = memo[1]
        if x.ndim == 0:
            return float(v[0]), float(d1[0]), float(d2[0])
        return v.copy(), d1.copy(), d2.copy()

    def value(self, x):
        return self.eval_all(x)[0]

    def d1(self, x):
        return self.eval_all(x)[1]

    # -- anchored potential ----------------------------------------------------
    def _mollified_envelope(self, xs):
        """(rho_delta * e_delta)(xs) for the unshifted graph, up to a constant.

        Its derivative is beta_delta, because e_delta' is the Yosida
        approximation.  The envelope of an affine Yosida is the quadratic
        eff/2 (x - root)^2; that of a piecewise-affine one is
        b0/2 x^2 + sum_i s_i/2 max(x - k_i, 0)^2, whose mollification is
        closed form in F, G and H:
            b0/2 x^2 + sum_i s_i/2 [u^2 F(w) - 2 r u G(w) + r^2 H(w)],
        with u = x - k_i, r = delta^2 and w = u / r.  A smooth graph's
        envelope (prox plus potential) goes through the Gauss rule.
        """
        g, d, m = self.graph, self.delta, self.mollifier
        if g.affine_yosida is not None:
            slope, root = g.affine_yosida
            return 0.5 * slope / (1.0 + d * slope) * (xs - root) ** 2
        if g.pw_jumps is not None:
            rad = d * d
            c = 0.5 * g.pw_base_slope / d * xs**2
            for k, jump in zip(g.kinks, g.pw_jumps):
                u = xs - k
                F, G, H = m.moments(u / rad, 3)
                c += 0.5 * jump / d * (u * u * F - 2.0 * rad * u * G
                                       + rad * rad * H)
            return c
        return np.sum(m.weights * self._envelope(self._rule_points(xs)),
                      axis=-1)

    def potential_on_grid(self, xs):
        """Anchored convex potential envelope(x0) + int_{x0}^x beta_delta at
        the points xs (any shape and order, duplicates allowed).

        Point by point, with C the mollified envelope of
        ``_mollified_envelope``:
            envelope(x0) + C(x - shift) - C(x0 - shift) - vshift (x - x0),
        so each value depends only on its own point and no integral over x
        is taken.
        """
        xs = np.asarray(xs, dtype=float)
        x0 = self.graph.anchor
        c = self._mollified_envelope(xs - self.shift)
        c0 = self._mollified_envelope(np.asarray(x0 - self.shift))
        return (float(self.ref_envelope(x0)) + (c - c0)
                - self.vshift * (xs - x0))


def regularize(graph: MonotoneGraph, delta: float) -> RegularizedFunction:
    """Plain mollified-Yosida regularization (no normalization shifts)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if (graph.affine_yosida is None and graph.pw_jumps is None
            and None in (graph.derivative, graph.second_derivative)):
        raise ValueError(f"graph {graph.name!r} is neither affine, nor "
                         "piecewise affine, nor smooth with both derivatives")
    return RegularizedFunction(graph=graph, delta=delta,
                               mollifier=standard_mollifier())


# ---------------------------------------------------------------------------
# Property check
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    bound: float
    worst: float
    margin: float
    witness: float
    passed: bool


@dataclass
class PropertyReport:
    delta: float
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def margins(self) -> dict:
        return {c.name: c.margin for c in self.checks}


def regularization_property_check(reg: RegularizedFunction, grid,
                                  tol: float = 1e-7) -> PropertyReport:
    """Verify the four quantitative regularization bounds on a sample grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    d = reg.delta
    m = reg.mollifier
    v, d1, d2 = reg.eval_all(grid)
    yos = reg.ref_yosida(grid)
    checks = []

    def add(name, quantity, bound):
        worst_idx = int(np.argmax(quantity))
        worst = float(quantity[worst_idx])
        checks.append(BoundCheck(
            name=name, bound=bound, worst=worst, margin=bound - worst,
            witness=float(grid[worst_idx]), passed=worst <= bound,
        ))

    add("yosida_distance", np.abs(v - yos), d + tol)
    add("first_derivative", np.abs(d1), 1.0 / d + tol)
    add("second_derivative", np.abs(d2), m.c_hat / d**3 + tol)

    pot = reg.potential_on_grid(grid)
    env = reg.ref_envelope(grid)
    parent = reg.ref_potential(grid)
    x0 = reg.graph.anchor
    slack_low = pot - (env - d * np.abs(grid - x0))
    slack_up = (parent + d * np.abs(grid - x0)) - pot
    finite = np.isfinite(parent)
    sandwich = np.minimum(slack_low, np.where(finite, slack_up, np.inf))
    worst_idx = int(np.argmin(sandwich))
    worst = float(sandwich[worst_idx])
    checks.append(BoundCheck(
        name="potential_sandwich", bound=-tol, worst=worst,
        margin=worst + tol, witness=float(grid[worst_idx]),
        passed=worst >= -tol,
    ))
    return PropertyReport(delta=reg.delta, checks=checks)


# ---------------------------------------------------------------------------
# Normalized regularizations used by the strong-mode solver
# ---------------------------------------------------------------------------

def _normalized(reg: RegularizedFunction) -> RegularizedFunction:
    """Remove the mollification drift so the regularization vanishes at 0.

    Applies only when the parent graph already satisfies 0 in beta(0)
    (equivalently, its Yosida approximation vanishes at 0); a graph that is
    genuinely non-normalized is returned untouched.  Indicator-type graphs
    admit an argument translation by +-delta^2 that lands 0 inside the
    mollified flat zone (exact zero, all bounds preserved relative to the
    translated graph); smooth graphs get the affine correction
    beta_delta - beta_delta(0), which is O(delta^4) there.

    A piecewise-affine graph is translated until its value at 0 is exactly
    zero: its drift at 0 is O(delta) while the tolerance is O(1/delta), so
    for small delta (below about 2.4e-7 for the half-line indicator) the
    untranslated drift would pass as zero.
    """
    scale = 1.0 / reg.delta
    y0 = float(reg.graph.yosida(reg.delta, 0.0))
    if abs(y0) > 1e-12 * scale:
        return reg
    tol = 0.0 if reg.graph.pw_jumps is not None else 1e-14 * scale
    v0 = reg.eval_all(0.0)[0]
    if abs(v0) <= tol:
        return reg
    rad = reg.delta ** 2
    for s in (-rad, rad):
        cand = replace(reg, shift=s)
        if abs(cand.eval_all(0.0)[0]) <= tol:
            return cand
    return replace(reg, vshift=v0)


def make_W_delta(split, delta: float) -> RegularizedFunction:
    """Regularization of the convex-part derivative of a potential split.

    Returns a C^3 monotone function with 0 <= W'' <= 1/delta and
    |W'''| <= C_rho/delta^3, normalized so the derivative vanishes at 0.
    """
    return _normalized(regularize(split.convex_part, delta))


def make_I_delta(delta: float) -> RegularizedFunction:
    """Smoothed Moreau-Yosida approximation of the indicator of (-inf, 0].

    The returned derivative I_delta' vanishes identically on (-inf, 0]
    (in particular I_delta'(0) = 0) and is (1/delta)-Lipschitz.
    """
    reg = _normalized(regularize(graph_indicator_halfline(), delta))
    if reg.vshift != 0.0:  # pragma: no cover - safety net
        raise RuntimeError("indicator normalization failed")
    return reg
