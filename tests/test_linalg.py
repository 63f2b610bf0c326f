"""Sparse solves, constraint handling, and dense stability diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from conftest import check_symmetry
from gdfem import forms, linalg
from gdfem.forms import METHODS, assemble_method, paper_coefficients
from gdfem.linalg import (DIAGNOSTIC_SIZE_LIMIT, LinearSystem,
                          SingularMatrixError, SizeLimitError, assemble_csr,
                          dense_nullspace, dump_matrix,
                          estimate_control_constant, restrict_free, solve)
from gdfem.mesh import make_unit_disc_mesh
from gdfem.problems import (convergence_problem, gradrob_problem,
                            locking_problem)


def test_solve_hand_case():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = solve(LinearSystem(A, np.array([3.0, 4.0])))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_indefinite():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    x = solve(LinearSystem(A, np.array([2.0, 3.0])))
    assert np.allclose(x, [2.0, -3.0], atol=1e-12)


def test_solve_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        solve(LinearSystem(A, np.array([1.0, 0.0])))


def test_solve_dimension_mismatch():
    A = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        solve(LinearSystem(A, np.zeros(2)))


def meets_contract(A, x, r):
    bound = 1e-9 * (abs(A).max() * np.linalg.norm(x) + np.linalg.norm(r))
    return np.linalg.norm(A @ x - r) <= bound


def disc_system(method, level, p):
    """A disc cell's system, the free-dof matrix and rhs that solve factors,
    and the free dofs."""
    prob = convergence_problem(p)
    system = assemble_method(method, make_unit_disc_mesh(level), p,
                             prob.coeffs, prob.f).system
    free = np.setdiff1d(np.arange(len(system.rhs)), system.constrained)
    return (system, restrict_free(system.matrix, system.constrained).tocsc(),
            system.rhs[free], free)


def record_splu(monkeypatch, factor=spla.splu):
    """Route spla.splu calls through factor(A, **kw); returns the list of
    the keyword arguments of each call."""
    calls = []

    def recording(A, **kw):
        calls.append(kw)
        return factor(A, **kw)

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def fill(lu):
    return lu.L.nnz + lu.U.nnz


class _CountingFactor:
    """A factor that counts the triangular solves made with it."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, r):
        self.solves += 1
        return self.lu.solve(r)


@pytest.mark.parametrize("method, level, p", [
    *[pytest.param(m, 2, 2, id=m) for m in METHODS],
    pytest.param("M4", 4, 1, id="M4-p1-level4")])
def test_symmetric_mode_matches_colamd(method, level, p, monkeypatch):
    """The symmetric-mode factor solves the disc operators as the general
    COLAMD factor with partial pivoting does, with less fill, first time,
    with the same static pivoting for every method, and with one
    correction: two triangular solves with the one factor.  Without
    relaxed supernodes the factor stores its L + U entries and no explicit
    zeros: with SuperLU's default relaxation, M1 and M2 at p=2 level 2
    store 26,055 and 46,568 entries for 21,287 and 29,634, and M4 at p=1
    level 4 stores 2.54M for 1.02M."""
    system, A, r, free = disc_system(method, level, p)
    lu = spla.splu(A)
    x_ref = lu.solve(r)
    splu, factors = spla.splu, []

    def factor(A, **kw):
        factors.append(_CountingFactor(splu(A, **kw)))
        return factors[-1]

    calls = record_splu(monkeypatch, factor)
    x = solve(system)
    monkeypatch.undo()
    assert np.linalg.norm(x[free] - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
    assert calls == [{"permc_spec": "MMD_AT_PLUS_A",
                      "diag_pivot_thresh": 0.0, "relax": 1,
                      "options": {"SymmetricMode": True}}]
    assert [f.solves for f in factors] == [2]
    sym = factors[0].lu
    assert fill(sym) < fill(lu)
    assert sym.nnz <= 1.001 * fill(sym)


class _BadFactor:
    """A factor whose solutions miss the residual contract."""

    def solve(self, r):
        return 1.01 * np.ones_like(r)


@pytest.mark.parametrize("failure", ["raises", "bad_residual"])
def test_symmetric_mode_failure_retries_colamd(failure, monkeypatch):
    """A symmetric-mode factor that fails or misses the residual contract
    is replaced by the COLAMD factor, whose corrected answer solve returns."""
    system, A, r, free = disc_system("M4", 1, 2)
    splu = spla.splu
    x_ref = linalg._factor_solve(A, r)

    def factor(A, **kw):
        if not kw:
            return splu(A)
        if failure == "raises":
            raise RuntimeError("Factor is exactly singular")
        return _BadFactor()

    calls = record_splu(monkeypatch, factor)
    x = solve(system)
    assert [bool(kw) for kw in calls] == [True, False]
    assert np.array_equal(x[free], x_ref)


def study_system(method, problem, level, p):
    """The system of a study cell on the disc at geometry order 2."""
    return assemble_method(method, make_unit_disc_mesh(level, geom_order=2),
                           p, problem.coeffs, problem.f).system


@pytest.mark.parametrize("method, problem, level, p, max_fill", [
    ("M2", gradrob_problem(1000.0), 2, 3, 89_174),
    ("M3", convergence_problem(2), 3, 2, 541_638)], ids=["gradrob-M2", "hconv-M3"])
def test_saddle_factor_keeps_symmetric_order(method, problem, level, p,
                                             max_fill, monkeypatch):
    """Static pivoting takes only diagonal pivots, so the factor keeps the
    symmetric minimum-degree order and its fill.  Gradrob M2, p=3, level
    2, c_s^2 = 1000: at a diagonal pivot threshold of 1e-3, 397 row and
    column positions differ and the fill is 794,444 entries; 89,174 is the
    fill at c_s^2 = 1.  Hconv M3, p=2, level 3: at 1e-3, 34 off-diagonal
    pivots and a fill of 682,518."""
    system = study_system(method, problem, level, p)
    splu, factors = spla.splu, []

    def factor(A, **kw):
        factors.append(splu(A, **kw))
        return factors[-1]

    record_splu(monkeypatch, factor)
    solve(system)
    (lu,) = factors
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert fill(lu) <= max_fill


@pytest.mark.parametrize("method, problem, p", [
    ("M4", locking_problem(1000.0), 2), ("M1", gradrob_problem(1000.0), 3)],
    ids=["locking-M4", "gradrob-M1"])
def test_answer_does_not_depend_on_the_ordering(method, problem, p,
                                                 monkeypatch):
    """With splu forced to COLAMD and partial pivoting, solve returns its
    default answer to 1e-10 relative in the max norm: the refinement's
    extended-precision residual removes the factor's ordering and pivots
    from the answer (locking M4 p=2 and gradrob M1 p=3, level 2,
    c_s^2 = 1000: 1.4e-8 and 1.6e-9 unrefined)."""
    system = study_system(method, problem, 2, p)
    x, splu = solve(system), spla.splu
    calls = record_splu(monkeypatch, lambda A, **kw: splu(A))
    x_colamd = solve(system)
    assert len(calls) == 1
    assert np.abs(x_colamd - x).max() <= 1e-10 * np.abs(x).max()


def test_solve_without_forcing_raises():
    """A pair assembled without a forcing (as the dense diagnostics
    assemble it) has a system, but no right-hand side to solve for."""
    ms = assemble_method("M4", make_unit_disc_mesh(0, geom_order=2), 1,
                         paper_coefficients(1), None)
    assert ms.system.rhs is None and ms.system.matrix.nnz > 0
    with pytest.raises(ValueError, match="without a forcing"):
        solve(ms.system)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 14), seed=st.integers(0, 2**32 - 1),
       c=st.floats(1.0, 1e3))
def test_solve_indefinite_property(n, seed, c):
    """K = -A + c B with A SPD and B PSD of low rank, like -a_h + c_s^2 b_h:
    the solution meets the residual contract and agrees with a dense solve."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    A = G @ G.T + np.eye(n)
    H = rng.standard_normal((n, rng.integers(1, n + 1)))
    H *= rng.random(H.shape) < 0.5
    K = -A + c * (H @ H.T)
    assume(np.linalg.cond(K) < 1e8)
    r = rng.standard_normal(n)
    x = solve(LinearSystem(sp.csr_matrix(K), r))
    assert meets_contract(K, x, r)
    x_ref = np.linalg.solve(K, r)
    assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)


def test_constrained_solve():
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.5],
                                [1.0, 3.0, 1.0],
                                [0.5, 1.0, 2.0]]))
    rhs = np.array([1.0, 2.0, 3.0])
    constrained = np.array([1])
    x = solve(LinearSystem(A, rhs, constrained))
    assert x[1] == 0.0
    # unconstrained dofs solve the reduced system exactly
    free = [0, 2]
    xr = np.linalg.solve(A.toarray()[np.ix_(free, free)], rhs[free])
    assert np.allclose(x[free], xr, atol=1e-12)


def test_constrained_solve_factors_free_block(monkeypatch):
    """On an M3 disc cell, whose boundary normal dofs are pinned, splu
    factors only the free-dof block, and the solution is exactly zero at
    the constrained dofs."""
    system, A, r, free = disc_system("M3", 1, 2)
    n, n_c = len(system.rhs), len(system.constrained)
    assert n_c > 0
    splu, shapes = spla.splu, []

    def factor(A, **kw):
        shapes.append(A.shape)
        return splu(A, **kw)

    record_splu(monkeypatch, factor)
    x = solve(system)
    assert shapes == [(n - n_c, n - n_c)]
    assert np.all(x[system.constrained] == 0.0)
    assert meets_contract(A, x[free], r)


@pytest.mark.parametrize("method", METHODS)
def test_assemble_csr_int32_indices_match_int64(method, monkeypatch):
    """assemble_csr builds its COO indices as int32; every block of a disc
    L2 cell gives the data, indices and indptr of the int64 construction."""
    blocks = []

    def checked(rows, cols, local, shape):
        got = assemble_csr(rows, cols, local, shape)
        r = np.broadcast_to(rows.astype(np.int64)[:, :, None], local.shape)
        c = np.broadcast_to(cols.astype(np.int64)[:, None, :], local.shape)
        want = sp.csr_matrix((local.ravel(), (r.ravel(), c.ravel())),
                             shape=shape)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        blocks.append(got.nnz)
        return got

    monkeypatch.setattr(forms, "assemble_csr", checked)
    prob = convergence_problem(2)
    assemble_method(method, make_unit_disc_mesh(2, geom_order=2), 2,
                    prob.coeffs, prob.f)
    assert blocks and all(blocks)


def test_check_symmetry():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert check_symmetry(A) == 0.0
    B = sp.csr_matrix(np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]]))
    with pytest.raises(ValueError):
        check_symmetry(B, tol=1e-12)


def test_dense_nullspace():
    M = np.diag([1.0, 0.0, 2.0])
    V = dense_nullspace(M)
    assert V.shape == (3, 1)
    assert abs(abs(V[1, 0]) - 1.0) <= 1e-12
    full = dense_nullspace(np.zeros((3, 3)))
    assert full.shape == (3, 3)
    none = dense_nullspace(np.eye(4))
    assert none.shape == (4, 0)


def test_size_limit_enforced():
    n = DIAGNOSTIC_SIZE_LIMIT + 1
    with pytest.raises(SizeLimitError):
        dense_nullspace(sp.eye(n))
    with pytest.raises(SizeLimitError):
        estimate_control_constant(sp.eye(n), sp.eye(n))


def test_estimate_control_constant_hand_cases():
    # B = diag(0, 4) against A = I: kernel span{e1}, complement span{e2}
    c, chat, k = estimate_control_constant(np.eye(2), np.diag([0.0, 4.0]))
    assert abs(c - 4.0) <= 1e-12
    assert abs(chat - 3.0 / 5.0) <= 1e-12
    assert k == 1
    # trivial kernel: smallest generalized eigenvalue of (B, A)
    c, chat, k = estimate_control_constant(np.diag([1.0, 2.0]),
                                           np.diag([2.0, 3.0]))
    assert abs(c - 1.5) <= 1e-12
    assert k == 0
    # c <= 1 reports no inf-sup constant
    c, chat, k = estimate_control_constant(np.eye(2), np.diag([0.0, 0.5]))
    assert abs(c - 0.5) <= 1e-12
    assert chat is None


def test_estimate_control_constant_a_orthogonality():
    """The complement is taken a-orthogonally, not Euclidean-orthogonally."""
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = np.outer([1.0, -1.0], [1.0, -1.0])  # kernel span{(1,1)}
    c, chat, k = estimate_control_constant(A, B)
    assert k == 1
    # W = {w: (1,1)^T A w = 0} = span{(1,-1)}; ratio = (w^T B w)/(w^T A w) = 4/2
    assert abs(c - 2.0) <= 1e-12
    assert abs(chat - 1.0 / 3.0) <= 1e-12


def test_estimate_requires_spd():
    with pytest.raises(ValueError):
        estimate_control_constant(np.diag([1.0, -1.0]), np.eye(2))


def test_estimate_rejects_vanishing_b():
    """A zero B leaves no complement of its kernel to take a ratio on."""
    with pytest.raises(ValueError, match="b_h vanishes"):
        estimate_control_constant(np.eye(3), np.zeros((3, 3)))


def test_estimate_rejects_indefinite_b():
    """A negative B would report a negative control constant."""
    with pytest.raises(ValueError, match="not positive semidefinite"):
        estimate_control_constant(np.eye(2), -np.eye(2))


def test_estimate_rejects_shape_mismatch():
    with pytest.raises(ValueError, match=r"\(3, 3\).*\(2, 2\)"):
        estimate_control_constant(np.eye(3), np.eye(2))


@pytest.mark.parametrize("A,B,k,c", [
    (np.eye(2), np.diag([0.0, 4.0]), 1, 4.0),
    (np.diag([1.0, 2.0]), np.diag([2.0, 3.0]), 0, 1.5),
    (np.eye(2), np.diag([0.0, 0.5]), 1, 0.5),
    (np.array([[2.0, 1.0], [1.0, 2.0]]),
     np.outer([1.0, -1.0], [1.0, -1.0]), 1, 2.0)])
def test_counted_pencil_hand_cases(A, B, k, c):
    """Given the kernel dimension, the pencil route returns what the
    threshold route does; any other count has no gap and raises."""
    assert estimate_control_constant(A, B, kernel_dim=k) == \
        pytest.approx(estimate_control_constant(A, B), rel=1e-12)
    assert estimate_control_constant(A, B, kernel_dim=k)[0] == \
        pytest.approx(c, rel=1e-12)
    for wrong in {k - 1, k + 1, len(A)}:
        with pytest.raises(ValueError, match=f"kernel dimension {wrong}:"):
            estimate_control_constant(A, B, kernel_dim=wrong)


@pytest.mark.parametrize("A,B,message", [
    (np.diag([1.0, -1.0]), np.eye(2), "A is not symmetric positive definite"),
    (np.eye(2), -np.eye(2), "not positive semidefinite"),
    (np.eye(2), np.diag([-1.0, 4.0]), "not positive semidefinite")])
def test_counted_pencil_rejects_what_the_threshold_route_rejects(A, B,
                                                                 message):
    """A non-SPD A and an indefinite B raise the same message on both
    routes, whatever the count."""
    with pytest.raises(ValueError, match=message):
        estimate_control_constant(A, B)
    for k in (0, 1):
        with pytest.raises(ValueError, match=message):
            estimate_control_constant(A, B, kernel_dim=k)


def test_restrict_free():
    M = sp.csr_matrix(np.arange(9.0).reshape(3, 3))
    R = restrict_free(M, np.array([1]))
    assert np.allclose(R.toarray(), [[0.0, 2.0], [6.0, 8.0]])
    assert restrict_free(M, np.array([], dtype=int)) is M


def test_dump_matrix_roundtrip(tmp_path):
    M = sp.csr_matrix(np.array([[1.5, 0.0], [0.0, -2.25]]))
    path = tmp_path / "m.txt"
    dump_matrix(M, path)
    entries = {}
    for line in path.read_text().splitlines():
        i, j, v = line.split()
        entries[(int(i), int(j))] = float(v)
    assert entries == {(0, 0): 1.5, (1, 1): -2.25}
