"""Uniform 1D meshes, P1 finite-element operators, and the Neumann eigenbasis.

Discrete conventions used throughout the package (they are chosen so that
the time-discrete energy-dissipation inequality telescopes exactly):

  * mass matrix M: consistent P1 (tridiagonal h/6 (1,4,1)); the lumped
    weights w_i = h (h/2 at the ends) serve as nodal quadrature weights;
  * stiffness matrix S: tridiagonal (-1, 2, -1)/h with Neumann ends, so
    xi^T S xi = int |xi'|^2 for P1 fields and S 1 = 0;
  * weighted stiffness S_c for int c(x) u' v': elementwise coefficient equal
    to the mean of the nodal coefficients, which makes
    1/2 u^T S_c u == sum_i c_i load_i with the trapezoid elastic load;
  * discrete negative Laplacian: Delta_h z = -W_L^{-1} S z; the discrete
    H^2 and H^3 norms are
        ||z||_{H2}^2 = ||z||_M^2 + |z|_S^2 + ||Delta_h z||_{W_L}^2,
        ||z||_{H3}^2 = ||z||_{H2}^2 + |Delta_h z|_S^2.

The eigenbasis holds the eigenpairs of the generalized symmetric problem
V S y = lambda M y: the 1D Neumann form of the vector eigenproblem used for
the spectral discretization of the momentum balance.  On the uniform mesh
they are known in closed form: with theta_k = k pi h/L, the sampled cosines
y_k(x_i) = cos(k pi x_i/L) satisfy, row by row and ends included,
    M y_k = (2 + cos theta_k)/3 W_L y_k,   S y_k = (2 - 2 cos theta_k)/h^2 W_L y_k,
so no eigensolve is needed.  The first eigenpair is the exact constant with
lambda_0 = 0; all later modes have zero M-mean.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy._core import _multiarray_umath

__all__ = [
    "Mesh1D",
    "Operators",
    "EigenBasis",
    "build_mesh",
    "assemble_operators",
    "weighted_stiffness_banded",
    "solve_spd_tridiag",
    "solve_tridiag",
    "neumann_eigenbasis",
    "EigenSolveError",
]


class EigenSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class Mesh1D:
    N: int
    L: float
    h: float
    nodes: np.ndarray


def build_mesh(N: int, L: float) -> Mesh1D:
    if N < 3:
        raise ValueError("mesh needs at least 3 nodes")
    if L <= 0:
        raise ValueError("domain length must be positive")
    nodes = np.linspace(0.0, float(L), int(N))
    return Mesh1D(N=int(N), L=float(L), h=float(L) / (int(N) - 1), nodes=nodes)


# Banded symmetric storage: row 0 holds the superdiagonal (padded on the
# left), row 1 the diagonal -- the layout of scipy.linalg.solveh_banded.

def banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for a field x, or row by row for a stack of fields (..., N)."""
    up, diag = ab[0], ab[1]
    y = diag * x
    y[..., :-1] += up[1:] * x[..., 1:]
    y[..., 1:] += up[1:] * x[..., :-1]
    return y


def banded_quadform(ab: np.ndarray, x: np.ndarray, y: Optional[np.ndarray] = None) -> float:
    y = x if y is None else y
    return float(np.dot(x, banded_matvec(ab, y)))


# Tridiagonal solves call the LAPACK routines ?ptsv and ?gtsv directly
# (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999): the routines, bits
# and checks of solveh_banded and solve_banded((1, 1), ...) without the
# wrappers' per-call cost.  They come from the OpenBLAS that numpy's wheels
# bundle (scipy-openblas64: ILP64 integers, symbols named scipy_<routine>_64_),
# looked up through the handle of numpy's own extension, whose dlsym searches
# the libraries it links, so no file name is needed.
def _lapack_routines():
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    try:
        routines = lib.scipy_dptsv_64_, lib.scipy_dgtsv_64_
    except AttributeError:
        raise ImportError(
            "damage_sim needs the LAPACK routines scipy_dptsv_64_ and "
            "scipy_dgtsv_64_ of the scipy-openblas64 library that numpy's "
            f"wheels bundle; numpy {np.__version__} does not export them"
        ) from None
    for routine, nargs in zip(routines, (7, 8)):
        routine.argtypes = [ctypes.c_void_p] * nargs
        routine.restype = None
    return routines


_PTSV, _GTSV = _lapack_routines()
_NRHS = ctypes.c_int64(1)
_NRHS_P = ctypes.addressof(_NRHS)


def _workspace(*arrays) -> tuple:
    """One float64 copy of ``arrays``, joined along the first axis, and its
    address; ValueError if it holds an inf or a NaN."""
    buf = np.concatenate(arrays, dtype=float)
    if not np.isfinite(buf).all():
        raise ValueError("array must not contain infs or NaNs")
    return buf, ctypes.addressof(ctypes.c_char.from_buffer(buf))


def solve_spd_tridiag(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b, A SPD tridiagonal in banded symmetric storage (2, N)
    and b of shape (N,), N >= 2; ValueError on other shapes or non-finite
    input, LinAlgError if A is not SPD.  The inputs are left untouched."""
    buf, p = _workspace(ab, b[np.newaxis])      # rows: (pad, e), d, b
    n = buf.shape[1]
    if buf.shape[0] != 3 or n < 2:
        raise ValueError(f"need ab of shape (2, N) and b of shape (N,), "
                         f"N >= 2; got {ab.shape} and {b.shape}")
    size, info = ctypes.c_int64(n), ctypes.c_int64()
    s = ctypes.addressof(size)
    _PTSV(s, _NRHS_P, p + 8 * n, p + 8, p + 16 * n, s,
          ctypes.addressof(info))
    if info.value:
        raise np.linalg.LinAlgError(
            f"{info.value}th leading minor not positive definite")
    return buf[2].copy()


def solve_tridiag(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonal dl, d,
    du (partial pivoting), d and b of shape (N,); ValueError on other shapes
    or non-finite input, LinAlgError if singular.  The inputs are left
    untouched."""
    n = d.size
    if not (d.shape == b.shape == (n,) and dl.shape == du.shape == (n - 1,)):
        raise ValueError(f"need diagonals of N - 1, N, N - 1 and b of N "
                         f"entries; got {dl.shape}, {d.shape}, {du.shape} "
                         f"and {b.shape}")
    buf, p = _workspace(dl, d, du, b)
    size, info = ctypes.c_int64(n), ctypes.c_int64()
    s = ctypes.addressof(size)
    _GTSV(s, _NRHS_P, p, p + 8 * (n - 1), p + 8 * (2 * n - 1),
          p + 8 * (3 * n - 2), s, ctypes.addressof(info))
    if info.value:
        raise np.linalg.LinAlgError("singular matrix")
    return buf[3 * n - 2:].copy()


@dataclass(frozen=True)
class Operators:
    """P1 mass/stiffness operators on a uniform mesh (banded symmetric)."""

    mesh: Mesh1D
    M: np.ndarray            # (2, N) banded consistent mass matrix
    S: np.ndarray            # (2, N) banded stiffness matrix
    w: np.ndarray            # lumped nodal quadrature weights

    def mass_matvec(self, x):
        return banded_matvec(self.M, x)

    def l2_norm(self, z) -> float:
        return float(np.sqrt(max(banded_quadform(self.M, z), 0.0)))

    def l2_norm_lumped(self, z) -> float:
        return float(np.sqrt(np.dot(self.w, z * z)))

    def lp_norm_lumped(self, z, p: float) -> float:
        return float(np.dot(self.w, np.abs(z) ** p) ** (1.0 / p))

    def h1_semi(self, z) -> float:
        return float(np.sqrt(max(banded_quadform(self.S, z), 0.0)))

    def laplacian_h(self, z) -> np.ndarray:
        return -banded_matvec(self.S, z) / self.w

    def h2_norm(self, z, lap=None) -> float:
        """H2 norm of z; lap, if given, is laplacian_h(z)."""
        if lap is None:
            lap = self.laplacian_h(z)
        return float(np.sqrt(self.l2_norm(z) ** 2 + self.h1_semi(z) ** 2
                             + np.dot(self.w, lap * lap)))

    def h2_h3_norms(self, z) -> tuple:
        """(H2 norm, H3 norm) of z from one discrete Laplacian."""
        lap = self.laplacian_h(z)
        h2 = self.h2_norm(z, lap)
        return h2, float(np.sqrt(h2 ** 2 + self.h1_semi(lap) ** 2))

    def strain(self, u) -> np.ndarray:
        """Elementwise strain of a P1 field ((..., N-1) array)."""
        return np.diff(u) / self.mesh.h

    def elastic_load(self, u, modulus: float) -> np.ndarray:
        """Nodal load l_i with sum_i a(chi_i) l_i = int a(chi) modulus/2 |u'|^2.

        l_i = modulus/2 * sum over elements at node i of (h/2) strain^2.
        """
        e = 0.5 * modulus * self.strain(u) ** 2 * (0.5 * self.mesh.h)
        load = np.zeros(np.shape(u))
        load[..., :-1] += e
        load[..., 1:] += e
        return load

    def element_mean(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return 0.5 * (c[..., :-1] + c[..., 1:])


def assemble_operators(mesh: Mesh1D) -> Operators:
    N, h = mesh.N, mesh.h
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h

    M = np.zeros((2, N))
    M[1] = 2.0 * h / 3.0
    M[1, 0] = M[1, -1] = h / 3.0
    M[0, 1:] = h / 6.0

    S = np.zeros((2, N))
    S[1] = 2.0 / h
    S[1, 0] = S[1, -1] = 1.0 / h
    S[0, 1:] = -1.0 / h
    return Operators(mesh=mesh, M=M, S=S, w=w)


def weighted_stiffness_banded(mesh: Mesh1D, coeff_nodal, scale: float = 1.0) -> np.ndarray:
    """Banded stiffness for int c(x) u' v' with elementwise c = nodal mean."""
    ce = scale * 0.5 * (np.asarray(coeff_nodal, dtype=float)[:-1]
                        + np.asarray(coeff_nodal, dtype=float)[1:])
    N, h = mesh.N, mesh.h
    ab = np.zeros((2, N))
    ab[1, :-1] += ce / h
    ab[1, 1:] += ce / h
    ab[0, 1:] = -ce / h
    return ab


@dataclass(frozen=True)
class EigenBasis:
    """First n+1 eigenpairs of V S y = lambda M y, M-orthonormal columns."""

    mesh: Mesh1D
    n: int
    eigenvalues: np.ndarray       # (n+1,), lambda_0 = 0
    vectors: np.ndarray           # (N, n+1), first column constant

    @property
    def n_modes(self) -> int:
        return self.n

    def project(self, ops: Operators, field) -> np.ndarray:
        """M-orthogonal projection coefficients of a nodal field."""
        return self.vectors.T @ ops.mass_matvec(np.asarray(field, dtype=float))

    def synthesize(self, coeffs) -> np.ndarray:
        return self.vectors @ np.asarray(coeffs, dtype=float)


def neumann_eigenbasis(mesh: Mesh1D, V: float, n: int,
                       ops: Optional[Operators] = None,
                       tol_eig: float = 1e-9) -> EigenBasis:
    """Lowest n+1 Neumann eigenpairs of the operator -d/dx (V d/dx).

    Closed form of V S y = lambda M y on the uniform mesh, with
    theta_k = k pi h / L:

        y_k(x_i) = cos(k pi x_i / L) / ||.||_M,
        lambda_k = (6 V / h^2) (1 - cos theta_k) / (2 + cos theta_k).

    The basis spans {1, y_1, ..., y_n}; modes k >= 1 have zero M-mean (the
    trapezoid sum of a sampled cosine vanishes) and y_k(0) > 0.  Each pair
    is checked against its residual ||V S y - lambda M y|| in the M^{-1}
    dual norm, which must stay below tol_eig (1 + |lambda|).
    """
    if V <= 0:
        raise ValueError("V must be positive")
    if n < 0 or n >= mesh.N - 1:
        raise ValueError("mode count must satisfy 0 <= n < N-1")
    ops = ops if ops is not None else assemble_operators(mesh)
    k = np.arange(n + 1)
    theta = np.pi * mesh.h / mesh.L * k
    vecs = np.cos(np.outer(mesh.nodes, np.pi / mesh.L * k))
    # ||cos||_M^2 = (2 + cos theta)/3 times the trapezoid sum of cos^2,
    # which is L for the constant and L/2 for every other mode
    norm_sq = mesh.L * (2.0 + np.cos(theta)) / 3.0
    norm_sq[1:] *= 0.5
    vecs /= np.sqrt(norm_sq)
    # 1 - cos(theta) written as 2 sin^2(theta/2) to avoid cancellation
    vals = (12.0 * V / mesh.h ** 2 * np.sin(0.5 * theta) ** 2
            / (2.0 + np.cos(theta)))

    # residual in the M^{-1} dual norm, relative to the eigenvalue scale
    for k in range(n + 1):
        r = V * banded_matvec(ops.S, vecs[:, k]) - vals[k] * banded_matvec(ops.M, vecs[:, k])
        rn = float(np.sqrt(np.dot(r, solve_spd_tridiag(ops.M, r))))
        if rn > tol_eig * (1.0 + abs(vals[k])):
            raise EigenSolveError(
                f"eigenpair {k} residual {rn:.3e} exceeds tol {tol_eig:.3e}")

    return EigenBasis(mesh=mesh, n=n, eigenvalues=vals, vectors=vecs)
