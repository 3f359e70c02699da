"""Volume and boundary forcings with exact local time means, kept separable.

A forcing is separable, f(x, t) = profile(x) * factor(t); boundary forcing
g(t) = weights * factor(t) carries one value per end point (x = 0, x = L).
The preset time factors (constant, sine, linear, and sampled tables with
linear interpolation in t) have exact interval means in closed form; only a
user-supplied ``CallableFactor`` is integrated adaptively, with scipy's
``quad`` imported on its first mean.  ``SampledForcing`` keeps a run's
samples in that form, O(K + N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "TimeFactor",
    "ConstantFactor",
    "SineFactor",
    "LinearFactor",
    "CallableFactor",
    "TableFactor",
    "Forcing",
    "BoundaryForcing",
    "SampledForcing",
    "local_time_means",
    "point_values",
]


class TimeFactor:
    def at(self, t: float) -> float:
        raise NotImplementedError

    def mean(self, t0: float, t1: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFactor(TimeFactor):
    value: float = 1.0

    def at(self, t):
        return self.value

    def mean(self, t0, t1):
        return self.value


@dataclass(frozen=True)
class SineFactor(TimeFactor):
    """amplitude * sin(2 pi freq t)."""

    amplitude: float = 1.0
    freq: float = 1.0

    def at(self, t):
        return self.amplitude * math.sin(2.0 * math.pi * self.freq * t)

    def mean(self, t0, t1):
        """a sin(w (t0 + t1)/2) sin(h)/h, h = w (t1 - t0)/2, w = 2 pi freq:
        the product form of the difference of cosines, free of
        cancellation; 0 for h = 0."""
        if t1 <= t0:
            raise ValueError("empty interval")
        w = 2.0 * math.pi * self.freq
        h = 0.5 * w * (t1 - t0)
        if h == 0.0:
            return 0.0
        return self.amplitude * math.sin(0.5 * w * (t0 + t1)) * math.sin(h) / h


@dataclass(frozen=True)
class LinearFactor(TimeFactor):
    """slope * t."""

    slope: float = 1.0

    def at(self, t):
        return self.slope * t

    def mean(self, t0, t1):
        if t1 <= t0:
            raise ValueError("empty interval")
        return self.slope * 0.5 * (t0 + t1)


@dataclass(frozen=True)
class CallableFactor(TimeFactor):
    """A user-supplied callable, its interval means taken by adaptive
    quadrature."""

    fn: Callable

    def at(self, t):
        return float(self.fn(t))

    def mean(self, t0, t1):
        if t1 <= t0:
            raise ValueError("empty interval")
        from scipy.integrate import quad

        val, _ = quad(self.fn, t0, t1, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val / (t1 - t0)


@dataclass(frozen=True)
class TableFactor(TimeFactor):
    """Piecewise-linear time table; interval means are exact."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise ValueError("table times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def at(self, t):
        return float(np.interp(t, self.times, self.values))

    def mean(self, t0, t1):
        if t1 <= t0:
            raise ValueError("empty interval")
        knots = self.times[(self.times > t0) & (self.times < t1)]
        pts = np.concatenate([[t0], knots, [t1]])
        vals = np.interp(pts, self.times, self.values)
        return float(np.trapezoid(vals, pts)) / (t1 - t0)


@dataclass(frozen=True)
class Forcing:
    """Separable volume forcing profile(x) * factor(t)."""

    profile: Union[np.ndarray, Callable, None]
    factor: TimeFactor

    def profile_on(self, x_nodes):
        if self.profile is None:
            return np.ones_like(x_nodes)
        if callable(self.profile):
            return np.asarray(self.profile(x_nodes), dtype=float)
        return np.asarray(self.profile, dtype=float)

    def at(self, t, x_nodes) -> np.ndarray:
        return self.profile_on(x_nodes) * self.factor.at(t)

    @staticmethod
    def zero() -> "Forcing":
        return Forcing(profile=None, factor=ConstantFactor(0.0))


@dataclass(frozen=True)
class BoundaryForcing:
    """Boundary forcing g(t) = (g at x=0, g at x=L)."""

    factor: TimeFactor
    weights: tuple = (1.0, 1.0)

    @staticmethod
    def zero() -> "BoundaryForcing":
        return BoundaryForcing(factor=ConstantFactor(0.0))

    @property
    def is_zero(self) -> bool:
        return isinstance(self.factor, ConstantFactor) and self.factor.value == 0.0


@dataclass(frozen=True)
class SampledForcing:
    """Forcing and boundary forcing at n samples, kept separable."""

    profile: np.ndarray       # (N,)
    weights: np.ndarray       # (2,)
    f_factor: np.ndarray      # (n,)
    g_factor: np.ndarray      # (n,)

    def rows(self, k) -> tuple:
        """(f_factor[k] profile, g_factor[k] weights), k an index or array."""
        return (np.multiply.outer(self.f_factor[k], self.profile),
                np.multiply.outer(self.g_factor[k], self.weights))


def _sample(forcing, boundary, x_nodes, values):
    return SampledForcing(forcing.profile_on(x_nodes),
                          np.asarray(boundary.weights, dtype=float),
                          np.array(values(forcing.factor), dtype=float),
                          np.array(values(boundary.factor), dtype=float))


def local_time_means(forcing: Forcing, boundary: BoundaryForcing, K: int,
                     tau: float, x_nodes: np.ndarray) -> SampledForcing:
    """Means (1/tau) int_{t_{k-1}}^{t_k} f, g dt at sample k - 1, k = 1..K."""
    if K < 1 or tau <= 0:
        raise ValueError("need K >= 1 and tau > 0")
    return _sample(forcing, boundary, x_nodes, lambda factor: [
        factor.mean((k - 1) * tau, k * tau) for k in range(1, K + 1)])


def point_values(forcing: Forcing, boundary: BoundaryForcing, times,
                 x_nodes: np.ndarray) -> SampledForcing:
    """f(x, t_j) and g(t_j) at the given times, at sample index j."""
    return _sample(forcing, boundary, x_nodes,
                   lambda factor: [factor.at(t) for t in times])
