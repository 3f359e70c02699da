"""Volume and boundary forcings with exact local time means.

A forcing is separable, f(x, t) = profile(x) * factor(t).  Time factors come
as analytic callables (integrated adaptively) or as sampled tables with
linear interpolation in t, whose interval means are computed exactly.
Boundary forcing g(t) carries one value per end point (x = 0 and x = L).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad

__all__ = [
    "TimeFactor",
    "ConstantFactor",
    "CallableFactor",
    "TableFactor",
    "Forcing",
    "BoundaryForcing",
    "local_time_means",
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
class CallableFactor(TimeFactor):
    fn: Callable

    def at(self, t):
        return float(self.fn(t))

    def mean(self, t0, t1):
        if t1 <= t0:
            raise ValueError("empty interval")
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

    def mean(self, t0, t1, x_nodes) -> np.ndarray:
        return self.profile_on(x_nodes) * self.factor.mean(t0, t1)

    @staticmethod
    def zero() -> "Forcing":
        return Forcing(profile=None, factor=ConstantFactor(0.0))

    @property
    def is_zero(self) -> bool:
        return isinstance(self.factor, ConstantFactor) and self.factor.value == 0.0


@dataclass(frozen=True)
class BoundaryForcing:
    """Boundary forcing g(t) = (g at x=0, g at x=L)."""

    factor: TimeFactor
    weights: tuple = (1.0, 1.0)

    def at(self, t) -> np.ndarray:
        return np.asarray(self.weights, dtype=float) * self.factor.at(t)

    def mean(self, t0, t1) -> np.ndarray:
        return np.asarray(self.weights, dtype=float) * self.factor.mean(t0, t1)

    @staticmethod
    def zero() -> "BoundaryForcing":
        return BoundaryForcing(factor=ConstantFactor(0.0))

    @property
    def is_zero(self) -> bool:
        return isinstance(self.factor, ConstantFactor) and self.factor.value == 0.0


def local_time_means(forcing: Union[Forcing, BoundaryForcing, TimeFactor],
                     K: int, tau: float, x_nodes: Optional[np.ndarray] = None,
                     t0: float = 0.0):
    """Interval means fbar_k = (1/tau) int_{t_{k-1}}^{t_k} f dt, k = 1..K."""
    if K < 1 or tau <= 0:
        raise ValueError("need K >= 1 and tau > 0")
    out = []
    for k in range(1, K + 1):
        a, b = t0 + (k - 1) * tau, t0 + k * tau
        if isinstance(forcing, Forcing):
            if x_nodes is None:
                raise ValueError("volume forcing needs node coordinates")
            out.append(forcing.mean(a, b, x_nodes))
        elif isinstance(forcing, BoundaryForcing):
            out.append(forcing.mean(a, b))
        else:
            out.append(forcing.mean(a, b))
    return np.asarray(out)
