"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the solver code paths: dense linear algebra,
exhaustive enumeration, elementary quadrature.
"""

import itertools

import numpy as np
from scipy.linalg import eigh
from scipy.special import roots_legendre

from damage_sim.discretization import banded_matvec, banded_quadform


def banded_to_dense(ab):
    """Dense symmetric matrix of a (2, N) banded operator (superdiagonal in
    row 0, diagonal in row 1)."""
    dense = np.diag(ab[1])
    dense += np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
    return dense


def dense_neumann_eigenpairs(ops, V, n):
    """Lowest n+1 eigenpairs of V S y = lambda M y by a dense generalized
    eigensolve: M-orthonormal vectors with y(0) > 0, and eigenvalues taken
    as their Rayleigh quotients, whose error is second order in the vector
    error (the eigenvalues eigh returns carry ~1e-9 absolute error at
    N = 1025)."""
    A = V * banded_to_dense(ops.S)
    B = banded_to_dense(ops.M)
    _, vecs = eigh(A, B, subset_by_index=[0, n])
    vecs *= np.sign(vecs[0])
    vals = np.einsum("ik,ik->k", vecs, A @ vecs)
    return vals, vecs


def dense_objective(sub, chi):
    """Objective of a damage subproblem evaluated with dense numpy only."""
    S = banded_to_dense(sub.S)
    val = (0.5 / sub.tau * np.dot(sub.w, (chi - sub.chi_prev) ** 2)
           + 0.5 * chi @ S @ chi
           + float(np.dot(sub.material.a(chi), sub.load))
           + float(np.dot(sub.drift, chi)))
    return val + float(np.dot(sub.w, sub.potential.breve_W(chi)))


def kkt_enumeration(sub, slope=1.0, center=0.0, a_kind="linear", a_scale=1.0):
    """Exhaustive active-set (and sign-pattern) enumeration for small damage
    subproblems with quadratic convex part W(r) = slope/2 (r-center)^2.

    a_kind = "linear": the elastic term contributes the constant gradient
    a'(chi) l = a_scale l (a is affine).  a_kind = "quadratic_plus": gradient
    2 a_scale max(chi,0) l, handled by enumerating the sign pattern of the
    inactive nodes.  Returns the minimizer.
    """
    n = sub.chi_prev.size
    S = banded_to_dense(sub.S)
    w = sub.w
    upper = sub.chi_prev
    base_diag = w / sub.tau + w * slope
    candidates = []
    sign_patterns = ([None] if a_kind == "linear"
                     else list(itertools.product([0, 1], repeat=n)))
    for active_bits in itertools.product([0, 1], repeat=n):
        active = np.array(active_bits, dtype=bool)
        inactive = ~active
        for signs in sign_patterns:
            A = S + np.diag(base_diag)
            rhs = w * sub.chi_prev / sub.tau - sub.drift + w * slope * center
            if a_kind == "linear":
                rhs = rhs - a_scale * sub.load
            else:
                pos = np.array(signs, dtype=bool)
                A = A + np.diag(np.where(pos, 2.0 * a_scale * sub.load, 0.0))
            chi = np.empty(n)
            chi[active] = upper[active]
            if inactive.any():
                Aii = A[np.ix_(inactive, inactive)]
                r = rhs[inactive] - A[np.ix_(inactive, active)] @ chi[active]
                try:
                    chi[inactive] = np.linalg.solve(Aii, r)
                except np.linalg.LinAlgError:
                    continue
            if a_kind == "quadratic_plus":
                pos = np.array(signs, dtype=bool)
                if np.any(pos & (chi < -1e-12)) or np.any(~pos & (chi > 1e-12)):
                    continue
            if np.any(chi[inactive] > upper[inactive] + 1e-12):
                continue
            grad = A @ chi - rhs
            if a_kind == "quadratic_plus":
                # recompute gradient with the true piecewise a-term
                grad = (w / sub.tau * (chi - sub.chi_prev) + S @ chi
                        + w * slope * (chi - center) + sub.drift
                        + 2.0 * a_scale * np.maximum(chi, 0.0) * sub.load)
            if np.any(grad[active] > 1e-10 * (1.0 + np.abs(grad).max())):
                continue
            if np.any(np.abs(grad[inactive]) > 1e-9 * (1.0 + np.abs(grad).max())):
                continue
            candidates.append(chi.copy())
    if not candidates:
        raise RuntimeError("enumeration found no KKT point")
    vals = [dense_objective(sub, c) for c in candidates]
    return candidates[int(np.argmin(vals))]


def rei_slack_quadratic(rep):
    """Relative-energy slack rhs - R - int_0^t (W - coupling) e^{int_s^t K} ds
    recomputed from a RelativeReport by one trapezoid sum per output time
    (O(n^2) work)."""
    t = rep.times
    cumK = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t)
                                            * (rep.K[1:] + rep.K[:-1]))])
    g = rep.W - rep.coupling
    slack = np.empty(t.size)
    for k in range(t.size):
        y = g[: k + 1] * np.exp(cumK[k] - cumK[: k + 1])
        slack[k] = rep.rhs[k] - rep.R[k] - float(np.trapezoid(y, t[: k + 1]))
    return slack


def simpson_energy(nodes, u, v, chi, material, potential, gamma2_eff=0.0):
    """Element-wise Simpson quadrature of the documented piecewise
    reconstructions of the discrete energy (exact for their polynomial
    degrees, hence must agree with the packaged functional to roundoff)."""
    h = nodes[1] - nodes[0]
    total = 0.0
    Wn = potential.W(chi)
    an = material.a(chi)
    for e in range(len(nodes) - 1):
        vi, vj = v[e], v[e + 1]
        vm = 0.5 * (vi + vj)
        total += h / 6.0 * (0.5 * vi**2 + 4 * 0.5 * vm**2 + 0.5 * vj**2)
        strain = (u[e + 1] - u[e]) / h
        dens = 0.5 * material.C * strain**2
        am = 0.5 * (an[e] + an[e + 1])
        total += h / 6.0 * (an[e] + 4 * am + an[e + 1]) * dens
        dchi = (chi[e + 1] - chi[e]) / h
        total += h * 0.5 * dchi**2
        wm = 0.5 * (Wn[e] + Wn[e + 1])
        total += h / 6.0 * (Wn[e] + 4 * wm + Wn[e + 1])
    total += 0.5 * gamma2_eff * (u[0] ** 2 + u[-1] ** 2)
    return total


def modal_exact_solution(lam, V, C, c0, cdot0, t, forcing_const=0.0):
    """Exact solution of c'' + V lam c' + C lam c = f (f constant)."""
    if lam == 0.0:
        return (c0 + cdot0 * t + 0.5 * forcing_const * t * t,
                cdot0 + forcing_const * t)
    part = forcing_const / (C * lam)
    a, b = c0 - part, cdot0
    disc = (V * lam) ** 2 - 4.0 * C * lam
    if disc >= 0.0:
        r1 = 0.5 * (-V * lam + np.sqrt(disc))
        r2 = 0.5 * (-V * lam - np.sqrt(disc))
        if abs(r1 - r2) < 1e-14:
            A, B = a, b - r1 * a
            c = (A + B * t) * np.exp(r1 * t)
            cd = (B + r1 * (A + B * t)) * np.exp(r1 * t)
        else:
            A = (b - r2 * a) / (r1 - r2)
            B = (r1 * a - b) / (r1 - r2)
            c = A * np.exp(r1 * t) + B * np.exp(r2 * t)
            cd = A * r1 * np.exp(r1 * t) + B * r2 * np.exp(r2 * t)
    else:
        sig = -0.5 * V * lam
        om = 0.5 * np.sqrt(-disc)
        A, B = a, (b - sig * a) / om
        c = np.exp(sig * t) * (A * np.cos(om * t) + B * np.sin(om * t))
        cd = np.exp(sig * t) * ((sig * A + om * B) * np.cos(om * t)
                                + (sig * B - om * A) * np.sin(om * t))
    return c + part, cd


def _sums(terms):
    """Each row's sum and the sum of its absolute values."""
    return [np.sum(t) for t in terms], [np.sum(np.abs(t)) for t in terms]


def mollified_yosida_pointwise(reg, xs):
    """(value, d1, d2) of reg.eval_all of a smooth graph at the points xs, one
    point at a time, by the mollifier's Gauss rule: the Yosida approximation
    and its first two derivatives by the chain rule through the prox at the
    rule's points; and the rounding scale of each: the same sums taken over
    absolute values."""
    g, d, m = reg.graph, reg.delta, reg.mollifier
    xs = np.asarray(xs, dtype=float) - reg.shift
    out = np.zeros((2, 3, xs.size))
    for i, x in enumerate(xs):
        y = x - d * d * m.nodes
        j = g.prox(d, y)
        b1 = g.derivative(j)
        out[:, :, i] = _sums([m.weights * g.yosida(d, y),
                              m.weights * b1 / (1.0 + d * b1),
                              m.weights * g.second_derivative(j)
                              / (1.0 + d * b1) ** 3])
    out[0, 0] -= reg.vshift
    return tuple(out[0]), tuple(out[1])


def _bump_d2(m, z):
    """rho'' of the normalized bump c exp(-1/(1-z^2)): rho times
    4z^2/o^4 - 2/o^2 - 8z^2/o^3, o = 1 - z^2 (0 outside (-1, 1))."""
    om = np.where(np.abs(z) < 1.0, 1.0 - z * z, 1.0)
    return m.rho(z) * (4.0 * z * z / om**4 - 2.0 / om**2 - 8.0 * z * z / om**3)


def mollified_yosida_kernel_form(reg, xs, n=1000):
    """(value, d1, d2) of the smoothed Yosida of a smooth graph at xs as the
    convolutions of the Yosida approximation with rho, rho' and rho''
    (divided by delta^2 and delta^4), each by n-point Gauss-Legendre on the
    kernel support, one point at a time; and the rounding scale of each: the
    same sums taken over absolute values."""
    g, d, m = reg.graph, reg.delta, reg.mollifier
    nodes, weights = roots_legendre(n)
    rad = d * d
    kernels = [weights * k / rad**p for p, k in
               enumerate((m.rho(nodes), m.drho(nodes), _bump_d2(m, nodes)))]
    xs = np.asarray(xs, dtype=float) - reg.shift
    out = np.zeros((2, 3, xs.size))
    for i, x in enumerate(xs):
        by = g.yosida(d, x - rad * nodes)
        out[:, :, i] = _sums([k * by for k in kernels])
    out[0, 0] -= reg.vshift
    return tuple(out[0]), tuple(out[1])


def mollified_pw_clipped(reg, xs):
    """(value, d1, d2) of the unshifted mollified Yosida of a piecewise-affine
    graph at xs, with the kernel moments F and G taken from their tables at
    clip(w, -1, 1) at every point and every kink."""
    g, d, m = reg.graph, reg.delta, reg.mollifier
    xs = np.asarray(xs, dtype=float)
    b0 = g.pw_base_slope / d
    v = b0 * xs
    d1 = np.full_like(xs, b0)
    d2 = np.zeros_like(xs)
    for k, jump in zip(g.kinks, g.pw_jumps):
        s = jump / d
        w = (xs - k) / (d * d)
        F = m.cum_F(np.clip(w, -1.0, 1.0))
        G = m.cum_G(np.clip(w, -1.0, 1.0))
        v += s * ((xs - k) * F - d * d * G)
        d1 += s * F
        inside = np.abs(w) < 1.0
        d2[inside] += s * m.rho(w[inside]) / (d * d)
    return v, d1, d2


def potential_on_grid_per_interval(reg, xs):
    """Anchored potential envelope(x0) + int_{x0}^x beta_delta at xs by a
    loop over the intervals between consecutive distinct points (and the
    anchor), each split at the kinks and the ends of their kernel supports
    inside it, GL-64 per piece, and a cumulative sum of the interval
    integrals."""
    xs = np.asarray(xs, dtype=float)
    x0 = reg.graph.anchor
    knots, inv = np.unique(np.append(xs, x0), return_inverse=True)
    nodes, weights = roots_legendre(64)
    rad = reg.delta ** 2
    steps = np.zeros_like(knots)
    for i in range(1, knots.size):
        a, b = knots[i - 1], knots[i]
        inner = [k + reg.shift + o for k in reg.graph.kinks
                 for o in (-rad, 0.0, rad) if a < k + reg.shift + o < b]
        pts = np.array(sorted({a, b, *inner}))
        half = 0.5 * np.diff(pts)[:, None]
        t = 0.5 * (pts[:-1] + pts[1:])[:, None] + half * nodes
        steps[i] = np.sum(half * weights * reg.eval_all(t)[0])
    cum = np.cumsum(steps)
    rel = cum[inv[:-1]] - cum[inv[-1]]
    return float(reg.ref_envelope(x0)) + rel.reshape(xs.shape)


def energy_per_snapshot(snap, material, potential, ops):
    """Discrete stored energy of one snapshot, one scalar product per term."""
    wvals = potential.W(snap.chi)
    if not np.all(np.isfinite(wvals)):
        raise ValueError("chi leaves the domain of the potential")
    val = (0.5 * banded_quadform(ops.M, snap.v)
           + float(np.dot(material.a(snap.chi), ops.elastic_load(snap.u, material.C)))
           + 0.5 * banded_quadform(ops.S, snap.chi)
           + float(np.dot(ops.w, wvals)))
    g2 = material.gamma2_eff
    if g2 > 0.0:
        val += 0.5 * g2 * (snap.u[0] ** 2 + snap.u[-1] ** 2)
    return val


def dissipation_per_snapshot(snap, material, ops, tol_mono=1e-10):
    """(dissipation, unidirectional) of one snapshot."""
    eps_v = ops.strain(snap.v)
    be = ops.element_mean(material.b(snap.chi))
    val = (float(np.sum(be * material.V * eps_v**2) * ops.mesh.h)
           + float(np.dot(ops.w, snap.chi_t**2)))
    g1 = material.gamma1_eff
    if g1 > 0.0:
        val += g1 * (snap.v[0] ** 2 + snap.v[-1] ** 2)
    return val, bool(np.max(snap.chi_t) <= tol_mono)


def edi_per_snapshot(traj, mono):
    """(E, D, cumulative work, slack, unidirectional) of the discrete EDI of
    a full-resolution weak trajectory, one snapshot at a time; each step's
    forcing means are formed from the run's configuration."""
    ops, mat, pot = traj.ops, traj.material, traj.potential
    tau = traj.tau
    config = traj.extras["config"]
    forcing, boundary = config.forcing, config.boundary
    profile = forcing.profile_on(traj.mesh.nodes)
    K = len(traj) - 1
    E = np.array([energy_per_snapshot(s, mat, pot, ops) for s in traj.snapshots])
    D = np.zeros(K + 1)
    uni = True
    for k in range(1, K + 1):
        D[k], flag = dissipation_per_snapshot(traj.snapshots[k], mat, ops, mono)
        uni &= flag
    work = np.zeros(K + 1)
    for k in range(1, K + 1):
        v = traj.snapshots[k].v
        fbar = profile * forcing.factor.mean((k - 1) * tau, k * tau)
        gbar = (np.asarray(boundary.weights, dtype=float)
                * boundary.factor.mean((k - 1) * tau, k * tau))
        wk = tau * float(np.dot(banded_matvec(ops.M, fbar), v))
        wk += tau * (gbar[0] * v[0] + gbar[1] * v[-1]) / mat.gamma0
        work[k] = work[k - 1] + wk
    Dcum = np.concatenate([[0.0], np.cumsum(tau * D[1:])])
    return E, D, work, (E[0] + work) - (E + Dcum), uni


def uedi_per_snapshot(traj, forcing, boundary, mono):
    """(E, D, cumulative work, slack, unidirectional) of the continuous-time
    UEDI on output times, one snapshot at a time."""
    ops, mat, pot = traj.ops, traj.material, traj.potential
    times = traj.times
    n = len(traj)
    E = np.array([energy_per_snapshot(s, mat, pot, ops) for s in traj.snapshots])
    D = np.zeros(n)
    workrate = np.zeros(n)
    uni = True
    for k, s in enumerate(traj.snapshots):
        D[k], flag = dissipation_per_snapshot(s, mat, ops, mono)
        uni &= flag
        fv = forcing.at(times[k], traj.mesh.nodes)
        workrate[k] = float(np.dot(banded_matvec(ops.M, fv), s.v))
        gv = (np.asarray(boundary.weights, dtype=float)
              * boundary.factor.at(times[k]))
        workrate[k] += (gv[0] * s.v[0] + gv[1] * s.v[-1]) / mat.gamma0

    def cumtrapz(y):
        return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(times)
                                                * (y[1:] + y[:-1]))])

    Wcum = cumtrapz(workrate)
    return E, D, Wcum, (E[0] + Wcum) - (E + cumtrapz(D)), uni
