"""The control-constant diagnostic against its references.

`linalg.estimate_control_constant` has two routes.  Without a kernel
count it takes the kernel of B from one symmetric eigensolve, the
a-orthogonal complement from a Householder QR and the reduced matrices
from sparse products; the functions below are the dense pipeline it
replaced (an SVD of B, an SVD of V^T A, dense triple products), kept as
the reference: the kernel dimension must be equal and c_bh agree to 1e-9
relative.  With the count that `cli.derham_kernel_dim` reads off the mesh
for M3 and M4 it solves the pencil (B, A) once; that count must equal
the threshold route's kernel dimension, and c_bh agree to 1e-12
relative.  Given the hexagon fan's rotation too, it solves the pencil on
the rotation's four Fourier blocks, which must return the one dense
pencil's c_bh to 1e-12 relative.  So does the threshold route for M1,
whose blocks must find the whole pencil's kernel count and its c_bh to
1e-7 relative, the tolerance of perfbench/expected.json.
"""

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gdfem import cli, linalg
from gdfem.cli import (DERHAM_METHODS, SINGLE_FIELD_METHODS,
                       default_geom_order, derham_kernel_dim, run_diagnostics)
from gdfem.forms import assemble_method, paper_coefficients
from gdfem.linalg import estimate_control_constant, restrict_free
from gdfem.mesh import Mesh, make_unit_disc_mesh

REL_TOL = 1e-9


def as_dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def reference_nullspace(M, tol=1e-8):
    """Right singular vectors of M with sigma <= tol sigma_max."""
    A = as_dense(M)
    n = A.shape[0]
    _, s, Vt = dla.svd(A)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return np.eye(n)
    k = int(np.sum(s <= tol * smax)) + (n - len(s))
    if k == 0:
        return np.zeros((n, 0))
    return Vt[-k:].T.copy()


def reference_control_constant(A, B, tol=1e-8):
    """(c_bh, dim ker B): W spans the null space of V^T A by an SVD."""
    Ad = as_dense(A)
    Bd = as_dense(B)
    Ad = 0.5 * (Ad + Ad.T)
    Bd = 0.5 * (Bd + Bd.T)
    V = reference_nullspace(Bd, tol=tol)
    k = V.shape[1]
    if k == 0:
        W = np.eye(Ad.shape[0])
    else:
        W = dla.svd(V.T @ Ad)[2][k:].T
    eigs = dla.eigh(W.T @ Bd @ W, W.T @ Ad @ W, eigvals_only=True)
    return float(eigs[0]), k


def assert_matches_reference(A, B):
    c_bh, c_hat, k = estimate_control_constant(A, B)
    c_ref, k_ref = reference_control_constant(A, B)
    assert k == k_ref
    assert abs(c_bh - c_ref) <= REL_TOL * abs(c_ref)
    if c_bh > 1.0:
        assert c_hat == pytest.approx((c_bh - 1.0) / (c_bh + 1.0), rel=1e-15)
    else:
        assert c_hat is None


def free_pair(method, p, level, geom_order=None, **kw):
    """(A_h, B_h) on the free dofs, the mesh and the rotation's dof table
    on the free dofs, as run_diagnostics builds them."""
    g = default_geom_order(p) if geom_order is None else geom_order
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, paper_coefficients(p, **kw), None)
    constrained = ms.velocity_space.constrained_dofs
    return (restrict_free(ms.a, constrained),
            restrict_free(ms.b, constrained), mesh,
            ms.rotation.dofs(constrained))


@pytest.mark.parametrize("method", ["M1", "M3", "M4"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("level", [0, 1])
def test_demo_cells_match_reference(method, p, level):
    """The cells of demos/stability_diagnostics.py, as run_diagnostics
    builds them."""
    A, B, _, _ = free_pair(method, p, level)
    assert_matches_reference(A, B)


# (p, level, geometry order) of M3/M4 cells of up to about 600 free dofs:
# the studies' geometry order, and one cell at each other order
DERHAM_CELLS = [(p, level, default_geom_order(p)) for p, level in (
    (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0))]
DERHAM_CELLS += [(2, 1, 1), (2, 1, 3)]


@pytest.mark.parametrize("method", DERHAM_METHODS)
@pytest.mark.parametrize("p,level,geom_order", DERHAM_CELLS)
def test_derham_count_is_the_threshold_kernel(method, p, level, geom_order):
    """dim ker B_h of a Piola-mapped method is the count of interior dofs
    of continuous P_{p+1}, on affine and curved cells; the pencil route
    given that count returns the threshold route's c_bh."""
    A, B, mesh, _ = free_pair(method, p, level, geom_order)
    assert A.shape[0] <= 600
    c_ref, c_hat_ref, k_ref = estimate_control_constant(A, B)
    n = derham_kernel_dim(mesh, p)
    c_bh, c_hat, k = estimate_control_constant(A, B, kernel_dim=n)
    assert n == k == k_ref
    assert abs(c_bh - c_ref) <= 1e-12 * c_ref
    assert c_hat == pytest.approx(c_hat_ref, rel=1e-12)


@pytest.mark.parametrize("method", DERHAM_METHODS)
@pytest.mark.parametrize("p,level,geom_order", DERHAM_CELLS)
def test_fourier_blocks_match_the_dense_pencil(method, p, level, geom_order):
    """The pencil on the rotation's four Fourier blocks gives the dense
    pencil's c_bh and kernel; each block holds (N - 1)/6 kernel
    eigenvalues, and block 0 the centre vertex's stream function too."""
    A, B, mesh, Q = free_pair(method, p, level, geom_order)
    n = derham_kernel_dim(mesh, p)
    c_dense, _, k_dense = estimate_control_constant(A, B, kernel_dim=n)
    c_bh, _, k = estimate_control_constant(A, B, kernel_dim=n, rotation=Q)
    assert k == k_dense == n
    assert abs(c_bh - c_dense) <= 1e-12 * c_dense
    A, B = linalg._symmetric_part(A), linalg._symmetric_part(B)
    spectra = linalg._block_spectra(A, B, linalg._orbits(Q, A, B))
    assert [mult for _, mult in spectra] == [1, 2, 2, 1]
    gap = linalg.KERNEL_TOL * max(np.abs(lam).max() for lam, _ in spectra)
    kernels = [np.count_nonzero(lam <= gap) for lam, _ in spectra]
    assert kernels == [(n - 1) // 6 + 1] + [(n - 1) // 6] * 3


def test_run_diagnostics_counts_the_piola_kernels(monkeypatch):
    """run_diagnostics gives estimate_control_constant the de Rham count
    for M3 and M4 and leaves M1 to the threshold route, and the rotation's
    dof table on the free dofs to every method, reading R's element map
    once per cell: the walk's for M3 and M4, the table's for M1."""
    assert DERHAM_METHODS == ("M3", "M4")
    seen, maps = [], []

    def spy(A, B, kernel_dim, rotation):
        seen.append((kernel_dim,
                     [len(t) for t in rotation] == [A.shape[0]] * 3))
        return estimate_control_constant(A, B, kernel_dim=kernel_dim,
                                         rotation=rotation)

    rotated_elements = Mesh.rotated_elements

    def counted(mesh):
        maps.append(mesh)
        return rotated_elements(mesh)

    monkeypatch.setattr(cli, "estimate_control_constant", spy)
    monkeypatch.setattr(Mesh, "rotated_elements", counted)
    kernels = [run_diagnostics(m, 1, 2)["kernel_dim"]
               for m in SINGLE_FIELD_METHODS]
    assert seen == [(None, True), (91, True), (91, True)]
    assert kernels == [0, 91, 91]
    assert len(maps) == 3


# (p, level) of the M1 cells of up to about 1,000 free dofs
M1_CELLS = [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1),
            (3, 2)]


@pytest.mark.parametrize("p,level", M1_CELLS)
def test_m1_blocks_match_the_whole_pencil(p, level):
    """run_diagnostics solves M1's threshold route on the rotation's
    Fourier blocks: it finds the whole pencil's kernel count exactly and
    its c_bh to 1e-7 relative, the tolerance perfbench/expected.json gives
    M1's cells; round-off moves c_bh by up to about 6e-8 between
    equivalent orderings of the whole pencil of M1 p=2 level 3."""
    A, B, _, _ = free_pair("M1", p, level)
    assert A.shape[0] <= 1000
    c_whole, _, k_whole = estimate_control_constant(A, B)
    res = run_diagnostics("M1", level, p)
    assert res["kernel_dim"] == k_whole
    assert abs(res["c_bh"] - c_whole) <= 1e-7 * c_whole


def test_m4_without_normal_penalty_is_indefinite():
    """With lambda_n = 0, M4's b_h is indefinite, and the counted route
    says so as the threshold route does, on the Fourier blocks too."""
    A, B, mesh, Q = free_pair("M4", 1, 0, lambda_n=0.0)
    n = derham_kernel_dim(mesh, 1)
    for kernel_dim, rotation in ((None, None), (n, None), (n, Q), (None, Q)):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            estimate_control_constant(A, B, kernel_dim=kernel_dim,
                                      rotation=rotation)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        run_diagnostics("M4", 0, 1, lambda_n=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_planted_kernel_matches_reference(n, seed, data):
    """Random SPD A and PSD B = C^T C whose kernel has a planted dimension k:
    the kernel is found, and c_bh agrees with the reference."""
    k = data.draw(st.integers(0, n - 1), label="k")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G @ G.T + n * np.eye(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mu = np.concatenate([np.zeros(k), rng.uniform(0.1, 10.0, n - k)])
    C = np.sqrt(mu)[:, None] * Q.T
    B = C.T @ C
    assert estimate_control_constant(A, B)[2] == k
    assert_matches_reference(A, B)
