"""Sparse systems, symmetric-indefinite solves, dense stability diagnostics.

Strong constraints are imposed by restriction: solve and the diagnostics
both work on the block of the free dofs (restrict_free).  solve factors it
by one rule, spla.splu(A, permc_spec="MMD_AT_PLUS_A",
diag_pivot_thresh=0.0, relax=1, options={"SymmetricMode": True}): static
pivoting without relaxed supernodes.  It corrects the answer once with a
longdouble residual.

The diagnostics (n <= DIAGNOSTIC_SIZE_LIMIT) solve dense pencils with
LAPACK's "gv" driver and take one of two routes
(estimate_control_constant), both on the four Fourier blocks of the
hexagon fan's rotation R by 60 degrees, of about n/6 rows each, read
off R's dof table (forms.Rotation.dofs): A_h and B_h commute with R's
dof action, so the split is exact, not an approximation.  Given the
dimension of ker B_h, which the discrete de Rham sequence counts for M3
and M4, the spectrum of the pencil (B_h, A_h) gives c_bh.  Without a
count (M1), the kernel is found by one relative threshold on the
eigenvalues of B_h over all blocks, and each block's pencil is reduced
to its a-orthogonal complement; this route stays while
perfbench/expected.json records its answer for M1 p=2 level 3, where the
threshold and the pencil's own gap disagree.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DIAGNOSTIC_SIZE_LIMIT = 2000
KERNEL_TOL = 1e-8   # the diagnostics' relative eigenvalue threshold


class SingularMatrixError(RuntimeError):
    pass


class SizeLimitError(ValueError):
    pass


_NOT_SPD = "A is not symmetric positive definite"


@dataclass
class LinearSystem:
    """Sparse symmetric matrix, right-hand side, and strong constraints.

    The matrix and rhs stay full size.  solve factors the block of the
    unconstrained (free) dofs only, so solutions are exactly zero at the
    constrained dofs.  rhs is None for a system assembled without a
    forcing, which solve rejects.
    """
    matrix: sp.spmatrix
    rhs: np.ndarray
    constrained: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))


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

    The free-dof block (apply_constraints) of every method is factored by
    SuperLU in symmetric mode with static pivoting: a minimum-degree
    ordering of A^T + A that keeps every diagonal pivot, and so its fill
    (Li & Demmel, ACM TOMS 2003); _factor_solve corrects the answer once.
    relax=1 turns off relaxed supernodes (Ashcraft & Grimes, ACM TOMS
    1989), which pad this factor with explicit zeros that L.nnz + U.nnz
    does not show: refine's 16 systems stored 12.67M entries for 10.92M
    and factored in 0.65 s, 0.52 s without; M4 p=1 level 5 stored 40.6M
    for 5.65M and factored in 16.4 s, 0.35 s without.
    Every solve must meet the residual contract ||Ax - r|| <= 1e-9
    (||A||_max ||x|| + ||r||) on that block.  If the symmetric-mode factor
    fails or misses it, the block is factored again with COLAMD and partial
    pivoting and SuperLU's default relaxation, and corrected the same way;
    SingularMatrixError is raised when that fails too.  The solution is
    zero at constrained dofs.  A system without a right-hand side raises
    ValueError.
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
                                diag_pivot_thresh=0.0, relax=1,
                                options={"SymmetricMode": True})
    except SingularMatrixError:
        x[free] = _factor_solve(A, r)
    return x


def _factor_solve(A, r, **splu_options):
    """spla.splu(A, **splu_options).solve(r) of a CSC A, corrected once,
    under the residual contract.

    The correction is the factor's solution for r - A x, formed in
    np.longdouble from a longdouble copy of A's data array alone.  With an
    80-bit np.longdouble (x86-64 Linux) this one step reaches the
    round-off floor when cond(A) times the double epsilon is below 1
    (Moler, J. ACM 1967; Demmel et al., ACM TOMS 2006), so the answer does
    not depend on the factor's ordering and pivots beyond round-off.  Where
    np.finfo(np.longdouble) is double, the same step is fixed-precision
    refinement, which still bounds the growth of static pivots (Skeel,
    Math. Comp. 1980) but not that dependence.
    """
    try:
        lu = spla.splu(A, **splu_options)
    except RuntimeError as exc:
        raise SingularMatrixError(str(exc)) from exc
    x = lu.solve(r)
    A_ext = sp.csc_matrix((A.data.astype(np.longdouble), A.indices, A.indptr),
                          shape=A.shape, copy=False)
    x = x + lu.solve((r - A_ext @ x).astype(float))
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


def dense_nullspace(M):
    """Orthonormal basis of the numerical kernel of a symmetric positive
    semidefinite M.

    The kernel is spanned by the eigenvectors whose |eigenvalue|, the
    singular value, is at most KERNEL_TOL times the largest; an eigenvalue
    below -KERNEL_TOL times it raises ValueError.  Diagnostic scale only
    (n <= 2000).
    """
    lam, Q = dla.eigh(_symmetric_part(M).toarray(), driver="evd",
                      overwrite_a=True)
    return Q[:, np.abs(lam) <= KERNEL_TOL * _semidefinite_scale(lam)]


def _semidefinite_scale(lam):
    """max |lam| of the ascending eigenvalues lam; ValueError if the
    smallest is below -KERNEL_TOL times it."""
    scale = np.abs(lam).max(initial=0.0)
    if lam.min(initial=0.0) < -KERNEL_TOL * scale:
        raise ValueError(f"matrix not positive semidefinite: eigenvalue "
                         f"{lam[0]:g}, largest magnitude {scale:g}")
    return scale


def estimate_control_constant(A, B, kernel_dim=None, rotation=None):
    """Smallest ratio b(w, w)/a(w, w) over the a-orthogonal complement of ker B.

    A must be symmetric positive definite, B symmetric positive
    semidefinite and nonzero, both square of one shape (dense or sparse,
    n <= 2000); inputs that break this raise ValueError.  Returns
    (c_bh, c_hat, dim_kernel) where c_hat = (c_bh - 1)/(c_bh + 1) when
    c_bh > 1, else None.

    The ratios are the eigenvalues of the pencil (B, A), ker B is the
    eigenspace of 0, and c_bh is the first eigenvalue past it.  Both
    routes raise the same ValueError for an A that is not SPD and for an
    eigenvalue below -KERNEL_TOL times the largest magnitude.  Each
    solves its pencils with LAPACK's xSYGV/xHEGV (driver "gv"), faster
    than the default divide-and-conquer "gvd" on these pencils (M1 p=2
    level 3's whole pencil: 0.29 s against 0.48 s).

    Both routes solve the pencil on the Fourier blocks of `rotation`, the
    dof table (image, tau, partner) of an orthogonal Q of order 6 with
    which A and B commute (the hexagon fan's rotation on the free dofs,
    forms.Rotation.dofs): per dof, the dof Q turns it onto, its turn in
    sixths and its pair partner, so Q is a signed permutation, or one up
    to 2 x 2 rotations of dof pairs, as on vector Lagrange's node values
    (_orbits).  The pencil splits exactly into Q's four Fourier blocks
    U_k^H (B, A) U_k, k = 0..3 (_fourier_blocks): the eigenspaces of Q
    are invariant under A and B, and blocks 1 and 2, complex Hermitian,
    stand for their conjugates 5 and 4 too (Bossavit, CMAME 1986;
    Allgower, Boehmer, Georg & Miranda, SINUM 1992).  A block has about
    n/6 rows, so its eigensolve costs about 1/216 of the whole pencil's,
    or 1/54 if complex.  U is unitary, so a block's Cholesky fails only
    when A is not SPD.  Without `rotation`, or with a table that fixes
    every dof with tau 0, one identity block.

    - kernel_dim = N (M3 and M4, counted by cli.derham_kernel_dim): the
      spectrum lam of (B, A), each block by eigh(..., eigvals_only=True),
      whose Cholesky factor of the block of A is the SPD check.  Unless lam
      has its gap at N, |lam[N-1]| <= KERNEL_TOL max|lam| < lam[N],
      ValueError names N; c_bh is lam[N].
    - kernel_dim None (M1 and direct callers), the threshold route: a
      Cholesky factorization of each block A_k checks A.  The kernel is
      spanned by the eigenvectors V of the blocks B_k whose |eigenvalue|
      is at most KERNEL_TOL times the largest of all blocks, each block
      counted with its multiplicity; "b_h vanishes" if that is all of
      them.  The trailing columns of the full Householder QR of A_k V span
      W = {w : V^H A_k w = 0}, the pencil (W^H B_k W, W^H A_k W) is solved
      for its full spectrum (for its smallest eigenvalue alone, M1 p=2
      level 3 moves by 2.6e-6 relative), and c_bh is the smallest
      eigenvalue over the blocks.

    M1's kernel, the curls of C^1 splines, has no dimension formula
    (Morgan & Scott, Math. Comp. 1975), and perfbench/expected.json
    records the threshold route's answer for M1 p=2 level 3 (a kernel of
    266, where the pencil's own gap lies at 213), so M1 keeps that route.
    """
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"A {A.shape} and B {B.shape} must be square "
                         "matrices of one shape")
    A, B = _symmetric_part(A), _symmetric_part(B)
    orbits = _orbits(rotation, A, B)
    if kernel_dim is None:
        c_bh, k = _complement_pencil(A, B, orbits)
    else:
        c_bh, k = _counted_pencil(A, B, kernel_dim, orbits), kernel_dim
    c_hat = (c_bh - 1.0) / (c_bh + 1.0) if c_bh > 1.0 else None
    return c_bh, c_hat, k


_OMEGA = np.exp(1j * np.pi / 3.0 * np.arange(6))    # omega^t, e^(i pi/3)


def _rotation_matrix(image, tau, partner):
    """Q, the CSR matrix of R's dof table (_orbits): Q e_d = omega^tau[d]
    e_image[d] for a dof without a pair, and cos(t) e_image[d] -+ sin(t)
    e_image[partner[d]], t = tau[d] pi/3 and - for the pair's second dof,
    as R turns a node's (u_x, u_y)."""
    d = np.arange(len(image))
    pair = np.flatnonzero(partner != d)
    turn = _OMEGA[tau % 6]
    sin = np.where(pair > partner[pair], -1, 1) * turn[pair].imag
    rows = np.append(image, image[partner[pair]])
    return sp.csr_matrix((np.append(turn.real, sin),
                          (rows, np.append(d, pair))), shape=(len(d),) * 2)


def _orbits(rotation, A, B):
    """(legs, orbit, shift, mode) of R's dof table `rotation`, (image,
    tau, partner) on the free dofs (forms.Rotation.dofs), and its matrix Q
    (_rotation_matrix): a unitary basis b_0..b_n-1 on which Q acts as a
    permutation with orbits of six and fixed points, and those orbits.
    b_d lies at place shift[d] of orbit orbit[d]; mode[o] is -1 for an
    orbit of six, b_d0, Q b_d0, ..., Q^5 b_d0, and k for a fixed
    Q b_d0 = omega^-k b_d0, omega = exp(i pi/3).  legs lists the basis by
    rows, [(dof, coef)] with b_dof[r] = coef[r] at row r: first each b_r
    at its own row, then, when Q turns pairs of dofs, each pair's b at its
    partner's row.

    Along an orbit of six, b_d is Q^j applied to the unit vector of the
    orbit's first dof: its sign, or its pair turned by the sum of the
    turns so far.  A fixed pair takes the circular components
    (e_a -+ i e_b)/sqrt(2), in modes -+t.  Without `rotation`, or with one
    that fixes every dof with tau 0, each dof is fixed, in mode 0.
    ValueError unless the table has A's size, image is one to one with
    orbits of six dofs or one, the turns along an orbit of six sum to
    0 mod 6 (Q^6 = I), partners map onto partners, and the symmetric CSR
    A and B commute with Q to 1e-10 relative.
    """
    n = A.shape[0]
    d = np.arange(n)
    image, tau, partner = ((d, np.zeros(n, dtype=int), d) if rotation is None
                           else rotation)
    if len(image) != n:
        raise ValueError(f"the rotation {(len(image),) * 2} must be of A's "
                         f"shape {A.shape}")
    dofs, turns = [d], [np.zeros(n, dtype=int)]
    for _ in range(5):
        turns.append(turns[-1] + tau[dofs[-1]])
        dofs.append(image[dofs[-1]])
    dofs, turns = np.transpose(dofs), np.transpose(turns) % 6
    fixed = image == d
    six = ((image[dofs[:, -1]] == dofs[:, 0])
           & ((turns[:, -1] + tau[dofs[:, -1]]) % 6 == 0)
           & np.all(dofs[:, 1:] != dofs[:, :1], axis=1))
    if not (np.all(np.bincount(image, minlength=n) == 1)
            and np.array_equal(partner[image], image[partner])
            and np.all(fixed | six)):
        raise ValueError("the rotation must be a signed permutation of "
                         "order 6, up to 2 x 2 rotations of dof pairs, whose "
                         "orbits hold six dofs or one")
    Q = _rotation_matrix(image, tau, partner)
    for M in (A, B):
        if abs(Q @ M - M @ Q).max() > 1e-10 * abs(M).max():
            raise ValueError("A and B must commute with the rotation")
    first = dofs.min(axis=1) == dofs[:, 0]
    orbit, shift, turn = (np.zeros(n, dtype=int) for _ in range(3))
    orbit[dofs[first]] = np.arange(np.count_nonzero(first))[:, None]
    shift[dofs[first & ~fixed]] = np.arange(6)
    turn[dofs[first & ~fixed]] = turns[first & ~fixed]
    # b_d on its own dof and on its pair partner's: cos and +-sin of its
    # turn (a sign without a partner), or a fixed pair's circular component
    second = np.where(d > partner, -1, 1)
    own, other = _OMEGA[turn].real, second * _OMEGA[turn].imag
    paired = partner != d
    circular = fixed & paired
    if circular.any():
        h = np.sqrt(0.5)
        own = np.where(circular, np.where(second > 0, h, 1j * h), own)
        other = np.where(circular, np.where(second > 0, -1j * h, h), other)
    mode = np.where(fixed, -tau * np.where(circular, second, 1) % 6,
                    -1)[dofs[first, 0]]
    legs = [(d, own)] + ([(partner, other[partner])] if paired.any() else [])
    return legs, orbit, shift, mode


def _fourier_blocks(M, orbits):
    """The blocks U_k^H M U_k, k = 0..m/2, of a symmetric CSR M and the
    multiplicity of their eigenvalues, over the orbits of _orbits, m = 6
    dofs to an orbit (m = 1 when every dof is fixed).  Column o of U_k is
    sum_j exp(2 pi i jk/m) Q^j b_d0 / sqrt(m) over an orbit of six, an
    eigenvector of Q for omega^-k, and b_d0 in block mode[o] only for a
    fixed one.  With X_jl[o, p] = b^H M b' for the j-th b of orbit o and
    the l-th b' of orbit p, of sizes m_o and m_p, the block is sum_s
    exp(2 pi i sk/m) D_s for D_s = sum_{l - j = s mod m} X_jl / sqrt(m_o
    m_p), which one bincount of M's entries, spread over the basis by the
    legs, forms: no n x n array is built.  Blocks 0 and m/2 hold only real
    b, so they are real; the others stand for their conjugates m - k too.
    """
    legs, orbit, shift, mode = orbits
    no, m = len(mode), 1 if np.all(mode >= 0) else 6
    M = M.tocoo()
    at, weight = [], []
    for dof_r, coef_r in legs:
        for dof_c, coef_c in legs:
            r, c = dof_r[M.row], dof_c[M.col]
            at.append(((shift[c] - shift[r]) % m * no + orbit[r]) * no
                      + orbit[c])
            weight.append(np.conj(coef_r[M.row]) * coef_c[M.col] * M.data)
    at, weight = np.concatenate(at), np.concatenate(weight)
    size = np.where(mode < 0, m, 1)
    scale = np.sqrt(np.outer(size, size))
    parts = ((weight.real, weight.imag) if np.iscomplexobj(weight)
             else (weight,))
    D = [np.bincount(at, weights=part, minlength=m * no * no).reshape(
        m, no, no) / scale for part in parts]
    for k in range(m // 2 + 1):
        w = np.exp(2j * np.pi * k / m * np.arange(m))
        block = np.tensordot(w.real, D[0], 1)
        if 2 * k % m:
            block = block + 1j * np.tensordot(w.imag, D[0], 1)
            if len(D) == 2:
                block = block + 1j * np.tensordot(w, D[1], 1)
        keep = (mode < 0) | (mode == k)
        if not keep.all():
            block = block[np.ix_(keep, keep)]
        yield block, 2 if 2 * k % m else 1


def _block_pairs(A, B, orbits):
    """(A's block, B's block, multiplicity) of each Fourier block of
    symmetric CSR A and B over `orbits` (_orbits), one at a time."""
    for (Ak, mult), (Bk, _) in zip(_fourier_blocks(A, orbits),
                                   _fourier_blocks(B, orbits)):
        yield Ak, Bk, mult


def _block_spectra(A, B, orbits):
    """[(eigenvalues of the pencil's Fourier block, multiplicity)] of
    symmetric CSR A and B over `orbits` (_orbits)."""
    try:
        return [(dla.eigh(Bk, Ak, eigvals_only=True, driver="gv",
                          overwrite_a=True, overwrite_b=True), mult)
                for Ak, Bk, mult in _block_pairs(A, B, orbits)]
    except dla.LinAlgError:
        raise ValueError(_NOT_SPD) from None


def _union(spectra):
    """The ascending eigenvalues of [(eigenvalues of a block,
    multiplicity)], each block's repeated by its multiplicity."""
    return np.sort(np.concatenate([np.tile(mu, mult)
                                   for mu, mult in spectra]))


def _counted_pencil(A, B, k, orbits):
    """c_bh of symmetric CSR A and B from the full spectrum of (B, A),
    whose kernel has dimension k, solved on the Fourier blocks of
    `orbits` (_orbits)."""
    lam = _union(_block_spectra(A, B, orbits))
    gap = KERNEL_TOL * _semidefinite_scale(lam)
    if not (0 <= k < len(lam) and (k == 0 or lam[k - 1] <= gap)
            and lam[k] > gap):
        raise ValueError(f"the pencil (B, A) has no spectral gap at the "
                         f"kernel dimension {k}: exactly {k} of its {len(lam)} "
                         f"eigenvalues must be at most {gap:g} in magnitude")
    return float(lam[k])


def _complement_pencil(A, B, orbits):
    """(c_bh, dim ker B) of symmetric CSR A and B on the Fourier blocks of
    `orbits` (_orbits), the kernel found by the relative threshold
    KERNEL_TOL on the union of the blocks' eigenvalues of B."""
    blocks = list(_block_pairs(A, B, orbits))
    try:
        for Ak, _, _ in blocks:
            dla.cholesky(Ak)
    except dla.LinAlgError:
        raise ValueError(_NOT_SPD) from None
    eigs = [dla.eigh(Bk, driver="evd") for _, Bk, _ in blocks]
    tol = KERNEL_TOL * _semidefinite_scale(_union(
        [(lam, mult) for (lam, _), (_, _, mult) in zip(eigs, blocks)]))
    kernels = [X[:, np.abs(lam) <= tol] for lam, X in eigs]
    k = sum(mult * V.shape[1] for V, (_, _, mult) in zip(kernels, blocks))
    if k == A.shape[0]:
        raise ValueError("b_h vanishes: its numerical kernel is the whole "
                         "space")
    c_bh = np.inf
    for (Ak, Bk, _), V in zip(blocks, kernels):
        kk = V.shape[1]
        if kk == len(Ak):
            continue
        if kk:
            W = dla.qr(Ak @ V, mode="full")[0][:, kk:]
            Ak, Bk = W.conj().T @ Ak @ W, W.conj().T @ Bk @ W
        c_bh = min(c_bh, dla.eigh(Bk, Ak, eigvals_only=True,
                                  driver="gv")[0])
    return float(c_bh), k


def dump_matrix(M, path):
    """Coordinate text dump, one 'i j value' per line, 0-based."""
    coo = sp.coo_matrix(M)
    with open(path, "w", newline="\n") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
