"""The control-constant diagnostic against its SVD reference.

`linalg.estimate_control_constant` takes the kernel of B from one
symmetric eigensolve, the a-orthogonal complement from a Householder QR
and the reduced matrices from sparse products.  The functions below are
the dense pipeline it replaced (an SVD of B, an SVD of V^T A, dense
triple products), kept as the reference: the kernel dimension must be
equal and c_bh agree to 1e-9 relative.
"""

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gdfem.cli import default_geom_order
from gdfem.forms import assemble_method, paper_coefficients
from gdfem.linalg import estimate_control_constant, restrict_free
from gdfem.mesh import make_unit_disc_mesh

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


@pytest.mark.parametrize("method", ["M1", "M3", "M4"])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("level", [0, 1])
def test_demo_cells_match_reference(method, p, level):
    """The cells of demos/stability_diagnostics.py, as run_diagnostics
    builds them."""
    mesh = make_unit_disc_mesh(level, geom_order=default_geom_order(p))
    ms = assemble_method(method, mesh, p, paper_coefficients(p), None)
    constrained = ms.velocity_space.constrained_dofs
    assert_matches_reference(restrict_free(ms.a, constrained),
                             restrict_free(ms.b, constrained))


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
