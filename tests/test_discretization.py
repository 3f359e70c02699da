import numpy as np
import pytest
import sympy as sp
from scipy.linalg import solve_banded, solveh_banded

from damage_sim.cli import run_scenario
from damage_sim.discretization import (
    EigenSolveError,
    assemble_operators,
    banded_matvec,
    banded_quadform,
    build_mesh,
    neumann_eigenbasis,
    solve_spd_tridiag,
    solve_tridiag,
    weighted_stiffness_banded,
)

from oracles import banded_to_dense, dense_neumann_eigenpairs


def test_build_mesh_examples():
    mesh = build_mesh(3, 1.0)
    assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0])
    assert mesh.h == 0.5
    assert build_mesh(101, 2.0).h == pytest.approx(0.02)
    for N, L in ((1, 1.0), (2, 1.0), (5, 0.0), (5, -1.0)):
        with pytest.raises(ValueError):
            build_mesh(N, L)


def test_stiffness_matches_symbolic_integration_on_3_nodes():
    # P1 hat functions on {0, 1/2, 1}: S_ij = int phi_i' phi_j'
    x = sp.symbols("x")
    h = sp.Rational(1, 2)
    phis = [
        sp.Piecewise(((h - x) / h, x <= h), (0, True)),
        sp.Piecewise((x / h, x <= h), ((1 - x) / h, True)),
        sp.Piecewise((0, x <= h), ((x - h) / h, True)),
    ]
    S_sym = np.array([[float(sp.integrate(sp.diff(pi, x) * sp.diff(pj, x), (x, 0, 1)))
                       for pj in phis] for pi in phis])
    mesh = build_mesh(3, 1.0)
    ops = assemble_operators(mesh)
    assert np.allclose(banded_to_dense(ops.S), S_sym, atol=1e-12)
    # interior row is (-2, 4, -2)
    assert np.allclose(banded_to_dense(ops.S)[1], [-2.0, 4.0, -2.0])


def test_mass_matches_symbolic_integration_on_3_nodes():
    x = sp.symbols("x")
    h = sp.Rational(1, 2)
    phis = [
        sp.Piecewise(((h - x) / h, x <= h), (0, True)),
        sp.Piecewise((x / h, x <= h), ((1 - x) / h, True)),
        sp.Piecewise((0, x <= h), ((x - h) / h, True)),
    ]
    M_sym = np.array([[float(sp.integrate(pi * pj, (x, 0, 1)))
                       for pj in phis] for pi in phis])
    ops = assemble_operators(build_mesh(3, 1.0))
    assert np.allclose(banded_to_dense(ops.M), M_sym, atol=1e-14)


def test_neumann_kernel_and_mass_conservation():
    for N, L in ((3, 1.0), (17, 2.5), (101, 0.7)):
        ops = assemble_operators(build_mesh(N, L))
        ones = np.ones(N)
        assert np.max(np.abs(banded_matvec(ops.S, ones))) == 0.0
        assert banded_quadform(ops.M, ones) == pytest.approx(L, rel=1e-13)
        assert np.sum(ops.w) == pytest.approx(L, rel=1e-13)


def test_stiffness_positive_semidefinite_random_vectors():
    ops = assemble_operators(build_mesh(31, 1.3))
    rng = np.random.default_rng(11)
    for _ in range(1000):
        xi = rng.standard_normal(31)
        q = banded_quadform(ops.S, xi)
        assert q >= -1e-10
    const = np.full(31, 0.37)
    assert abs(banded_quadform(ops.S, const)) <= 1e-10


def test_quadform_equals_exact_derivative_integral():
    # <S xi, xi> = int |xi'|^2 for piecewise-linear xi
    mesh = build_mesh(9, 2.0)
    ops = assemble_operators(mesh)
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(9)
    exact = float(np.sum(np.diff(xi) ** 2 / mesh.h))
    assert banded_quadform(ops.S, xi) == pytest.approx(exact, rel=1e-12)


def test_weighted_stiffness_consistent_with_elastic_load():
    # 1/2 u^T S_a u must equal sum_i a_i * load_i exactly
    mesh = build_mesh(13, 1.0)
    ops = assemble_operators(mesh)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(13)
    a = rng.uniform(0.1, 2.0, 13)
    Sa = weighted_stiffness_banded(mesh, a, scale=1.7)
    lhs = 0.5 * banded_quadform(Sa, u)
    rhs = float(np.dot(a, ops.elastic_load(u, 1.7)))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_eigenvalues_against_neumann_cosines():
    mesh = build_mesh(401, 1.0)
    basis = neumann_eigenbasis(mesh, 1.0, 3)
    assert basis.eigenvalues[0] == 0.0
    for k in range(1, 4):
        exact = (k * np.pi) ** 2
        assert abs(basis.eigenvalues[k] - exact) / exact <= 1e-3


def test_eigenvalues_scale_with_V():
    mesh = build_mesh(201, 1.0)
    b1 = neumann_eigenbasis(mesh, 1.0, 3)
    b4 = neumann_eigenbasis(mesh, 4.0, 3)
    assert np.allclose(b4.eigenvalues[1:], 4.0 * b1.eigenvalues[1:], rtol=1e-12)


def test_first_eigenvector_matches_sampled_cosine():
    mesh = build_mesh(401, 1.0)
    ops = assemble_operators(mesh)
    basis = neumann_eigenbasis(mesh, 1.0, 1)
    ref = np.sqrt(2.0) * np.cos(np.pi * mesh.nodes)
    dist = np.sqrt(banded_quadform(ops.M, basis.vectors[:, 1] - ref))
    assert dist <= 1e-2


def test_eigenbasis_orthonormal_and_zero_mean():
    mesh = build_mesh(101, 1.0)
    ops = assemble_operators(mesh)
    basis = neumann_eigenbasis(mesh, 2.0, 5)
    Y = basis.vectors
    G = Y.T @ np.column_stack([ops.mass_matvec(Y[:, j]) for j in range(6)])
    assert np.allclose(G, np.eye(6), atol=1e-9)
    ones = np.ones(101)
    for k in range(1, 6):
        assert abs(banded_quadform(ops.M, ones, Y[:, k])) <= 1e-10


def test_eigenvalue_convergence_rate_under_h_refinement():
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    e_coarse = np.abs(neumann_eigenbasis(build_mesh(201, 1.0), 1.0, 5)
                      .eigenvalues[1:] - exact) / exact
    e_fine = np.abs(neumann_eigenbasis(build_mesh(401, 1.0), 1.0, 5)
                    .eigenvalues[1:] - exact) / exact
    assert np.all(e_coarse / e_fine >= 3.5)


def test_mode_count_precondition():
    mesh = build_mesh(11, 1.0)
    with pytest.raises(ValueError):
        neumann_eigenbasis(mesh, 1.0, 10)


def test_eigenbasis_matches_dense_eigensolve():
    for N in (101, 1025):
        ops = assemble_operators(build_mesh(N, 1.0))
        basis = neumann_eigenbasis(ops.mesh, 1.0, 12, ops=ops)
        vals, vecs = dense_neumann_eigenpairs(ops, 1.0, 12)
        assert np.max(np.abs(basis.vectors - vecs)) <= 1e-10
        assert np.all(np.abs(basis.eigenvalues - vals)
                      <= 1e-10 * (1.0 + np.abs(vals)))


def test_eigen_residual_gate_raises():
    mesh = build_mesh(101, 1.0)
    with pytest.raises(EigenSolveError, match="residual"):
        neumann_eigenbasis(mesh, 1.0, 5, tol_eig=1e-16)


def test_eigenbasis_csv_export(tmp_path):
    cfg = tmp_path / "eigs.cfg"
    cfg.write_text("mesh.N = 21\nstrong.n_modes = 2\n")
    assert run_scenario(str(cfg), "eigs", str(tmp_path / "out")) == 0
    mesh = build_mesh(21, 1.0)
    basis = neumann_eigenbasis(mesh, 1.0, 2)
    path = tmp_path / "out" / "eigenbasis.csv"
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape[0] == 21
    assert set(data.dtype.names) == {"x", "mode_0", "mode_1", "mode_2"}
    # the bytes of "%.17g" per value, as the snapshot files
    rows = np.column_stack([mesh.nodes, basis.vectors])
    expected = "x,mode_0,mode_1,mode_2\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# Direct LAPACK tridiagonal solves
# ---------------------------------------------------------------------------

def _systems(n, seed):
    """Seeded SPD banded (2, n) and general (3, n) tridiagonal systems."""
    rng = np.random.default_rng(seed)
    spd = np.zeros((2, n))
    spd[0, 1:] = rng.uniform(-1.0, 1.0, n - 1)
    spd[1] = 2.5 + rng.uniform(0.0, 1.0, n)
    gen = np.zeros((3, n))
    gen[0, 1:] = rng.uniform(-1.0, 1.0, n - 1)
    gen[1] = rng.uniform(-2.0, 2.0, n)
    gen[2, :-1] = rng.uniform(-1.0, 1.0, n - 1)
    return spd, gen, rng.uniform(-1.0, 1.0, n)


def _gen_parts(gen):
    return gen[2, :-1], gen[1], gen[0, 1:]


@pytest.mark.parametrize("n", [1, 2, 3, 201, 1025, 4097])
def test_tridiag_helpers_match_scipy_bitwise(n):
    # scipy's own LAPACK build is the independent oracle; 1025 and 4097 are
    # the strong meshes
    for seed in range(5):
        spd, gen, b = _systems(n, seed)
        x = solve_tridiag(*_gen_parts(gen), b)
        assert np.array_equal(x, solve_banded((1, 1), gen, b))
        if n == 1:
            # solveh_banded rejects a (2, 1) band, and so does ?ptsv
            with pytest.raises(ValueError):
                solveh_banded(spd, b)
            with pytest.raises(ValueError):
                solve_spd_tridiag(spd, b)
        else:
            assert np.array_equal(solve_spd_tridiag(spd, b),
                                  solveh_banded(spd, b))
        # inputs are left untouched
        assert np.array_equal(b, _systems(n, seed)[2])
        assert np.array_equal(gen, _systems(n, seed)[1])
        assert np.array_equal(spd, _systems(n, seed)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tridiag_helpers_reject_non_finite_input(bad):
    for n in (1, 2, 201):
        spd, gen, b = _systems(n, 0)
        for row in range(2):
            if row == 0 and n == 1:
                continue
            A = spd.copy()
            A[row, -1] = bad
            with pytest.raises(ValueError):
                solve_spd_tridiag(A, b)
        for i in range(3):
            parts = [p.copy() for p in _gen_parts(gen)]
            if parts[i].size == 0:
                continue
            parts[i][0] = bad
            with pytest.raises(ValueError):
                solve_tridiag(*parts, b)
        rhs = b.copy()
        rhs[-1] = bad
        if n > 1:
            with pytest.raises(ValueError):
                solve_spd_tridiag(spd, rhs)
        with pytest.raises(ValueError):
            solve_tridiag(*_gen_parts(gen), rhs)


def test_tridiag_helpers_reject_mismatched_shapes():
    spd, gen, b = _systems(5, 0)
    dl, d, du = _gen_parts(gen)
    for A, rhs in [(spd, b[:4]), (spd[:, :4], b), (spd[1], b),
                   (np.vstack((spd, spd[1:])), b), (spd, b[:, None])]:
        with pytest.raises(ValueError):
            solve_spd_tridiag(A, rhs)
    for parts in [(dl, d, du, b[:4]), (dl[:3], d, du, b), (dl, d, du[:3], b),
                  (dl, d[:4], du, b), (dl, d, du, b[:, None]),
                  (np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))]:
        with pytest.raises(ValueError):
            solve_tridiag(*parts)


def test_tridiag_helpers_return_their_own_arrays():
    # a solution is not a view into the solver's workspace, which would
    # keep the workspace alive with it
    spd, gen, b = _systems(201, 0)
    for x in (solve_spd_tridiag(spd, b), solve_tridiag(*_gen_parts(gen), b)):
        assert x.base is None and x.flags.owndata and x.shape == (201,)


def test_tridiag_helpers_raise_linalg_error():
    spd, gen, b = _systems(201, 0)
    indefinite = spd.copy()
    indefinite[1, 100] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd_tridiag(indefinite, b)
    # a zero row is singular, whatever the pivoting
    dl, d, du = (p.copy() for p in _gen_parts(gen))
    dl[99] = d[100] = du[100] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_tridiag(dl, d, du, b)
    with pytest.raises(np.linalg.LinAlgError):
        solve_tridiag(np.zeros(0), np.zeros(1), np.zeros(0), np.ones(1))
