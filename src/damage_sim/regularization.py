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
splines are evaluated only at points that see a kink inside the kernel
support (|w| < 1); every other point takes their exact end values, so a
call costs a few array operations per kink.  Affine Yosida functions pass
through mollification unchanged; everything else (the smooth graphs of the
logarithmic and double-well potentials) is one Gauss-Legendre broadcast over
points x support segments x 64 nodes, the support [-1, 1] cut at every kink,
so the Yosida approximation (and its prox) is evaluated once per call.
``eval_all`` remembers its last argument and result, because the strong
solver asks again for the iterate it has just evaluated.  The anchored
potential needs no integral over x: beta_Y_delta is the derivative of the
Moreau envelope e_delta, so beta_delta is the derivative of rho_delta * e_delta,
and each point's value is that mollified envelope at the point minus its
value at the anchor.  The envelope is quadratic for affine Yosida functions,
piecewise quadratic for piecewise-affine ones (closed form with the third
moment H(w) = int_{-1}^w z^2 rho(z) dz), and goes through the same
Gauss-Legendre broadcast, with rho alone, for the smooth graphs.

scipy's quadrature, spline and special-function modules are imported where
they are used: by the standard mollifier and by the Gauss-Legendre table,
each built once on first use, so importing this module (as the weak stepper
does, for ``yosida_eval``) loads none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property
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
    "resolvent",
    "yosida_eval",
    "regularize",
    "regularization_property_check",
    "make_W_delta",
    "make_I_delta",
]

# Points per broadcast of the quadrature path, which expands each point into
# 64 nodes per support segment: bounds the size of the temporaries.
_QUADRATURE_BLOCK = 256


@cache
def _gauss_legendre_64():
    """Nodes and weights of 64-point Gauss-Legendre on [-1, 1], built once."""
    from scipy.special import roots_legendre

    return roots_legendre(64)


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
    potential : callable or None
        The convex potential beta_hat (np.inf outside its domain).
    minimal_section : callable or None
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
    potential: Optional[Callable] = None
    minimal_section: Optional[Callable] = None
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


def graph_indicator_box(lo: float = 0.0, hi: float = 1.0) -> MonotoneGraph:
    """Subdifferential of the indicator of [lo, hi]; prox is the clamp."""
    if not lo < hi:
        raise ValueError("empty box")

    def _pot(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 0.0, np.inf)

    def _sec(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 0.0, np.nan)

    return MonotoneGraph(
        name=f"indicator_box[{lo:g},{hi:g}]",
        prox=lambda lam, x: np.clip(np.asarray(x, dtype=float), lo, hi),
        potential=_pot,
        minimal_section=_sec,
        kinks=(lo, hi),
        domain=(lo, hi),
        anchor=0.5 * (lo + hi),
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
        second_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        domain=(-np.inf, np.inf),
        anchor=center,
        affine_yosida=(slope, center),
    )


def graph_smooth(
    name: str,
    fn: Callable,
    dfn: Callable,
    d2fn: Optional[Callable] = None,
    potential: Optional[Callable] = None,
    domain: tuple = (-np.inf, np.inf),
    anchor: float = 0.0,
) -> MonotoneGraph:
    """Graph of a smooth increasing function beta = fn with beta' = dfn.

    The prox rule is a safeguarded vectorized Newton iteration on
    y + lam * fn(y) = x restricted to the open domain.  Each point leaves the
    iteration on its own test, so its value does not depend on the other
    points of the call.  A Newton step that keeps the sign of the
    residual and does not halve it is replaced by a bisection of the bracket
    at the next iteration: where fn is clipped near a domain end, dfn need not
    be its derivative, and Newton would crawl.
    """
    lo, hi = domain

    def _prox(lam, x):
        x = np.asarray(x, dtype=float)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape).copy()
        pad = 1e-12 if np.isfinite(lo) or np.isfinite(hi) else 0.0
        if np.isfinite(lo):
            ylo = np.full(x.shape, lo + pad)
        else:
            # expand geometrically until the residual brackets the root
            ylo = np.minimum(x, 0.0) - 1.0
            for _ in range(200):
                bad = ylo + lam * fn(ylo) - x > 0
                if not np.any(bad):
                    break
                ylo = np.where(bad, 2.0 * ylo - 1.0, ylo)
        if np.isfinite(hi):
            yhi = np.full(x.shape, hi - pad)
        else:
            yhi = np.maximum(x, 0.0) + 1.0
            for _ in range(200):
                bad = yhi + lam * fn(yhi) - x < 0
                if not np.any(bad):
                    break
                yhi = np.where(bad, 2.0 * yhi + 1.0, yhi)
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
# Elementary operations
# ---------------------------------------------------------------------------

def resolvent(graph: MonotoneGraph, lam: float, x):
    """Resolvent J_lam(x) = prox(lam, x)."""
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("lam must be positive")
    return graph.prox(lam, x)


def yosida_eval(graph: MonotoneGraph, delta: float, x):
    """Yosida approximation (x - J_delta(x)) / delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return graph.yosida(delta, x)


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

    Carries the derivative kernels and the splines of the cumulative
    moments F(w) = int_{-1}^w rho, G(w) = int_{-1}^w z rho(z) dz and
    H(w) = int_{-1}^w z^2 rho(z) dz used by the closed-form mollification of
    piecewise-affine functions (F and G) and of their piecewise-quadratic
    Moreau envelopes (all three).
    """

    rho: Callable
    drho: Callable
    d2rho: Callable
    c_hat: float                 # ||rho'||_L1
    abs_moment: float            # int |z| rho(z) dz
    cum_F: Callable = field(repr=False)
    cum_G: Callable = field(repr=False)
    cum_H: Callable = field(repr=False)

    @cached_property
    def _ends(self):
        """(value at w = -1, value at w = 1) of each of F, G, H, taken from
        the splines."""
        return tuple((s(-1.0), s(1.0))
                     for s in (self.cum_F, self.cum_G, self.cum_H))

    def moments(self, w, count: int = 2):
        """The first ``count`` of (F(w), G(w), H(w)), constant outside
        [-1, 1]: the splines run only at the points with |w| < 1 (and NaN,
        which they propagate)."""
        above = w >= 1.0
        out = [np.where(above, hi, lo) for lo, hi in self._ends[:count]]
        near = ~(above | (w <= -1.0))
        if near.any():
            wn = w[near]
            for o, s in zip(out, (self.cum_F, self.cum_G, self.cum_H)):
                o[near] = s(wn)
        return out


def _build_standard_mollifier() -> Mollifier:
    from scipy.integrate import cumulative_simpson, quad
    from scipy.interpolate import CubicSpline

    mass, _ = quad(_bump_raw, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    c = 1.0 / mass

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

    def d2rho(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        zi = z[inside]
        om = 1.0 - zi * zi
        out[inside] = c * np.exp(-1.0 / om) * (
            4.0 * zi * zi / om**4 - 2.0 / om**2 - 8.0 * zi * zi / om**3
        )
        return out

    # |rho'| integrates to 2 rho(0): rho increases on (-1,0), decreases after
    c_hat = 2.0 * float(rho(np.array([0.0]))[0])
    abs_moment, _ = quad(lambda z: abs(z) * c * _bump_raw(z), -1.0, 1.0,
                         epsabs=1e-14, epsrel=1e-14)

    zgrid = np.linspace(-1.0, 1.0, 8193)
    rv = rho(zgrid)
    Fvals = np.concatenate([[0.0], cumulative_simpson(rv, x=zgrid)])
    Fvals /= Fvals[-1]
    Gvals = np.concatenate([[0.0], cumulative_simpson(zgrid * rv, x=zgrid)])
    Hvals = np.concatenate([[0.0], cumulative_simpson(zgrid**2 * rv, x=zgrid)])
    return Mollifier(rho=rho, drho=drho, d2rho=d2rho, c_hat=c_hat,
                     abs_moment=abs_moment, cum_F=CubicSpline(zgrid, Fvals),
                     cum_G=CubicSpline(zgrid, Gvals),
                     cum_H=CubicSpline(zgrid, Hvals))


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
        if self.graph.potential is None:
            raise ValueError("graph has no analytic potential")
        j = self.graph.prox(self.delta, y)
        return (y - j) ** 2 / (2.0 * self.delta) + self.graph.potential(j)

    def ref_envelope(self, x):
        """Moreau envelope of the parent potential, shifted consistently."""
        x = np.asarray(x, dtype=float)
        return (self._envelope(x - self.shift)
                - self.vshift * (x - self.graph.anchor))

    def ref_potential(self, x):
        if self.graph.potential is None:
            raise ValueError("graph has no analytic potential")
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
        rad = d * d
        v, d1, d2 = self._quadrature(lambda y: g.yosida(d, y),
                                     (m.rho, m.drho, m.d2rho), xs)
        return v, d1 / rad, d2 / rad**2

    def _quadrature(self, fn, kernels, xs):
        """int k(z) fn(x - delta^2 z) dz for each kernel k at the points xs.

        Gauss-Legendre 64 on each segment of the kernel support [-1, 1] cut
        at every kink, broadcast over points x segments x nodes in blocks of
        ``_QUADRATURE_BLOCK`` points, so fn runs once per block; a kink
        outside the support clips to -1 or 1 and gives a zero-length segment,
        which adds exactly 0.
        """
        nodes, weights = _gauss_legendre_64()
        rad = self.delta * self.delta
        kinks = np.asarray(self.graph.kinks, dtype=float)
        flat = xs.ravel()
        parts = []
        for i in range(0, max(flat.size, 1), _QUADRATURE_BLOCK):
            b = flat[i:i + _QUADRATURE_BLOCK, None]
            w = np.clip((b - kinks) / rad, -1.0, 1.0)
            cuts = np.sort(np.pad(w, [(0, 0), (1, 1)],
                                  constant_values=(-1.0, 1.0)), axis=-1)
            half = 0.5 * np.diff(cuts, axis=-1)[..., None]
            z = 0.5 * (cuts[:, :-1] + cuts[:, 1:])[..., None] + half * nodes
            wf = half * weights * fn(b[..., None] - rad * z)
            parts.append([np.sum(np.sum(k(z) * wf, axis=-1), axis=-1)
                          for k in kernels])
        return [np.concatenate(p).reshape(xs.shape) for p in zip(*parts)]

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
        with u = x - k_i, r = delta^2 and w = u / r.  Any other envelope
        (prox plus the graph's potential) goes through the quadrature.
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
        return self._quadrature(self._envelope, (m.rho,), xs)[0]

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


def regularize(graph: MonotoneGraph, delta: float,
               mollifier: Optional[Mollifier] = None) -> RegularizedFunction:
    """Plain mollified-Yosida regularization (no normalization shifts)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return RegularizedFunction(graph=graph, delta=delta,
                               mollifier=mollifier or standard_mollifier())


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
                                  tol: float = 1e-7,
                                  claimed_delta: Optional[float] = None) -> PropertyReport:
    """Verify the four quantitative regularization bounds on a sample grid.

    ``claimed_delta`` lets the caller check the function against metadata that
    may disagree with the actual construction; bounds use the claimed value.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    d = reg.delta if claimed_delta is None else claimed_delta
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

    if reg.graph.potential is not None:
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
    """
    scale = 1.0 / reg.delta
    y0 = float(reg.graph.yosida(reg.delta, 0.0))
    if abs(y0) > 1e-12 * scale:
        return reg
    v0 = reg.eval_all(0.0)[0]
    if abs(v0) <= 1e-14 * scale:
        return reg
    rad = reg.delta ** 2
    for s in (-rad, rad):
        cand = replace(reg, shift=s)
        if abs(cand.eval_all(0.0)[0]) <= 1e-14 * scale:
            return cand
    return replace(reg, vshift=v0)


def make_W_delta(split, delta: float,
                 mollifier: Optional[Mollifier] = None) -> RegularizedFunction:
    """Regularization of the convex-part derivative of a potential split.

    Returns a C^3 monotone function with 0 <= W'' <= 1/delta and
    |W'''| <= C_rho/delta^3, normalized so the derivative vanishes at 0.
    """
    graph = split.convex_part if hasattr(split, "convex_part") else split
    if graph.prox is None:
        raise ValueError("convex part lacks a proximal rule")
    return _normalized(regularize(graph, delta, mollifier))


def make_I_delta(delta: float,
                 mollifier: Optional[Mollifier] = None) -> RegularizedFunction:
    """Smoothed Moreau-Yosida approximation of the indicator of (-inf, 0].

    The returned derivative I_delta' vanishes identically on (-inf, 0]
    (in particular I_delta'(0) = 0) and is (1/delta)-Lipschitz.
    """
    reg = _normalized(regularize(graph_indicator_halfline(), delta, mollifier))
    if reg.shift == 0.0 and reg.vshift == 0.0:  # pragma: no cover - safety net
        raise RuntimeError("indicator normalization failed")
    return reg
