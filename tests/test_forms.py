"""Bilinear form assembly: hand oracles, symmetry, positivity, consistency."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gdfem.fespace import DegreeError, DiscreteField, bdm_interpolate, \
    build_space, l2_project
from gdfem.forms import (METHODS, CoefficientSet, assemble_a_dg,
                         assemble_a_volume, assemble_b_dg, assemble_b_volume,
                         assemble_m2_system, assemble_method, assemble_rhs,
                         error_norms, method_forms, method_spaces,
                         paper_coefficients, rotational_flow)
from gdfem.linalg import check_symmetry, solve
from gdfem.mesh import (FacetGeometry, GeometryMap, make_unit_disc_mesh,
                        make_unit_square_mesh, mesh_size)
from gdfem.problems import convergence_problem
from gdfem.quadrature import segment_rule, triangle_rule

RNG = np.random.default_rng(11)


def unit_coeffs(lambda_b=0.0, lambda_n=0.0):
    return CoefficientSet(rho=1.0, c_s=1.0, b_flow=rotational_flow(0.1),
                          b_inf=0.1, lambda_b=lambda_b, lambda_n=lambda_n)


# -- coefficient handling -----------------------------------------------------

def test_coefficient_validation():
    with pytest.raises(ValueError):
        CoefficientSet(b_inf=0.0)
    with pytest.raises(ValueError):
        CoefficientSet(lambda_b=-1.0)
    co = CoefficientSet(rho=-1.0, b_inf=0.1)
    with pytest.raises(ValueError):
        co.rho_at(np.zeros((1, 2)))
    for bad in (0.0, np.nan):
        co = CoefficientSet(rho=bad, c_s=bad, b_inf=0.1)
        with pytest.raises(ValueError):
            co.rho_at(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            co.cs2_at(np.zeros((1, 2)))
    for cs2 in (0.0, -4.0, np.nan):
        with pytest.raises(ValueError):
            paper_coefficients(2, cs2=cs2)


def test_paper_coefficient_defaults():
    co = paper_coefficients(3)
    assert co.lambda_b == 90.0
    assert co.lambda_n == 900.0
    pts = np.array([[0.5, 0.25]])
    assert np.allclose(co.b_at(pts), [[-0.025, 0.05]])
    assert co.b_inf == 0.1


def test_rotational_flow_tangential_on_disc():
    """b = 0.1(-y, x) has (near-)vanishing normal trace on the disc boundary."""
    co = unit_coeffs()
    exact = make_unit_disc_mesh(2, geom_order=1)
    # straight facets of the polygonal boundary are chords: |b.n| = O(h^2)|b|
    assert co.boundary_flow_defect(exact) <= 0.01
    curved = make_unit_disc_mesh(1, geom_order=2)
    assert co.boundary_flow_defect(curved) <= 0.02


# -- hand-computable oracles on the unit square -------------------------------

def test_b_volume_oracle_square(square1):
    """u = (x, y): b(u,u) = int rho c^2 (div u)^2 = 4 on the unit square."""
    space = build_space("vector_lagrange", square1, 1)
    u = l2_project(space, lambda q: q)
    B = assemble_b_volume(space, unit_coeffs())
    assert abs(u.coefficients @ (B @ u.coefficients) - 4.0) <= 1e-12


def test_a_volume_oracle_square(square1):
    """u = (x, y), b = 0.1(-y, x):  (b.grad)u = b, so

    a(u,u) = int |b|^2 + 0.01 int |u|^2 = 0.01*(2/3) + 0.01*(2/3) = 0.04/3.
    """
    space = build_space("vector_lagrange", square1, 1)
    u = l2_project(space, lambda q: q)
    A = assemble_a_volume(space, unit_coeffs())
    assert abs(u.coefficients @ (A @ u.coefficients) - 0.04 / 3) <= 1e-12


def test_b_dg_oracle_square(square1):
    """u = (x, y) in the DG space with lambda_n = 100:

    interior jumps vanish (u continuous), leaving
      volume:       int (div u)^2            = 4
      consistency: -2 * {div u} * oint u.n   = -2 * 2 * 2 = -8
      penalty:      100 * sum_F h_F^{-1} int (u.n)^2 ds = 100 * (1 + 1) = 200
    (u.n = 1 on the right and top edges of length 1, 0 on the others),
    so b_dg(u,u) = 196.
    """
    space = build_space("vector_dg", square1, 1)
    u = l2_project(space, lambda q: q, order=6)
    B = assemble_b_dg(space, unit_coeffs(lambda_n=100.0))
    assert abs(u.coefficients @ (B @ u.coefficients) - 196.0) <= 1e-9


@pytest.mark.parametrize("mesh", ["square2", "disc3_curved"])
def test_b_dg_continuous_space_skips_interior_facets(mesh):
    """The normal jump of a continuous space vanishes, so b_h^DG of M1 stores
    no interior-facet entries beyond the volume pattern.  (Not equality:
    the sparse sum prunes explicit zeros the volume matrix keeps.)"""
    msh = (make_unit_square_mesh(2) if mesh == "square2"
           else make_unit_disc_mesh(3, geom_order=2))
    space = build_space("vector_lagrange", msh, 2)
    co = paper_coefficients(2)
    assert assemble_b_dg(space, co).nnz <= assemble_b_volume(space, co).nnz


def test_a_dg_matches_a_volume_for_continuous_fields(square2):
    """All jump terms of a_h^DG vanish on a continuous field."""
    co = unit_coeffs(lambda_b=40.0)
    v = lambda q: np.column_stack([np.sin(q[:, 0]) + q[:, 1] ** 2,
                                   q[:, 0] * q[:, 1]])
    lag = build_space("vector_lagrange", square2, 3)
    ul = l2_project(lag, v, order=12)
    aval = ul.coefficients @ (assemble_a_volume(lag, co, order=12)
                              @ ul.coefficients)
    dg = build_space("vector_dg", square2, 3)
    # re-expand the (piecewise-polynomial) Lagrange field in the DG space
    udg = _reexpand(ul, dg)
    adg = udg.coefficients @ (assemble_a_dg(dg, co, order=12)
                              @ udg.coefficients)
    assert abs(aval - adg) <= 1e-10 * max(abs(aval), 1.0)


def _reexpand(field, dg_space):
    """Element-wise L2 re-expansion of a field in a DG space (affine mesh)."""
    rule = triangle_rule(2 * dg_space.degree + 4)
    coeffs = np.zeros(dg_space.ndof)
    mesh = dg_space.mesh
    for e in range(mesh.num_triangles):
        det = GeometryMap.dets(mesh.geometry(e).jacobian(rule.points))
        wq = rule.weights * det
        bv, _, _ = dg_space.eval_basis(e, rule.points, need_grad=False)
        fv, _, _ = field.evaluate(e, rule.points, need_grad=False)
        M = np.einsum("q,qic,qjc->ij", wq, bv, bv)
        r = np.einsum("q,qc,qjc->j", wq, fv, bv)
        coeffs[dg_space.dof_map[e]] = np.linalg.solve(M, r)
    return DiscreteField(dg_space, coeffs)


def test_rhs_partition_of_unity(square2):
    """f = (1, 0): component sums of the load vector give int f dx."""
    space = build_space("vector_lagrange", square2, 2)
    rhs = assemble_rhs(space, lambda q: np.column_stack(
        [np.ones(len(q)), np.zeros(len(q))]))
    assert abs(rhs[0::2].sum() - 1.0) <= 1e-12
    assert abs(rhs[1::2].sum()) <= 1e-13


# -- symmetry and positivity --------------------------------------------------

def test_all_matrices_symmetric(disc1_curved):
    co = unit_coeffs(lambda_b=40.0, lambda_n=40.0)
    for family, mats in [
            ("vector_lagrange", (assemble_a_volume, assemble_b_volume,
                                 assemble_b_dg)),
            ("hdiv_bdm", (assemble_a_dg, assemble_b_volume)),
            ("vector_dg", (assemble_a_dg, assemble_b_dg))]:
        space = build_space(family, disc1_curved, 2)
        for asm in mats:
            assert check_symmetry(asm(space, co), tol=1e-12) >= 0.0
    vel = build_space("vector_lagrange", disc1_curved, 2)
    pp = build_space("scalar_lagrange", disc1_curved, 1)
    A2, B2 = assemble_m2_system(vel, pp, co)
    assert check_symmetry(-A2 + B2, tol=1e-12) >= 0.0


@pytest.mark.parametrize("method", ["M3", "M4"])
def test_gram_matrices_psd(disc1_curved, method):
    """a_h and b_h are PSD up to -1e-10 for 20 random coefficient vectors."""
    co = unit_coeffs(lambda_b=40.0, lambda_n=40.0)
    family = "hdiv_bdm" if method == "M3" else "vector_dg"
    space = build_space(family, disc1_curved, 2)
    A = assemble_a_dg(space, co)
    B = assemble_b_volume(space, co) if method == "M3" \
        else assemble_b_dg(space, co)
    for M in (A, B):
        scale = abs(M).max()
        for _ in range(20):
            x = RNG.standard_normal(space.ndof)
            x /= np.linalg.norm(x)
            assert x @ (M @ x) >= -1e-10 * scale


# -- M2 saddle system ---------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_cs2_split_matches_assembly(method):
    """The pair assembled at c_s = 1 gives -A_h + c^2 B_h equal to the
    operator assembled at c_s^2 = c^2, for every method."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    f = convergence_problem(2).f
    unit = assemble_method(method, mesh, 2, paper_coefficients(2), f)
    for c2 in (1.0, 10.0, 1000.0):
        K = assemble_method(method, mesh, 2, paper_coefficients(2, cs2=c2),
                            f).system.matrix
        Ks = unit.system_at(c2, f).matrix
        assert spla.norm(Ks - K, "fro") <= 1e-12 * spla.norm(K, "fro"), c2


def test_m2_requires_degree_two(square1):
    with pytest.raises(DegreeError):
        method_spaces("M2", square1, 1)


def test_m2_schur_oracle(square1):
    """Eliminating the auxiliary scalar reproduces -a(u,u) + b^pp(u,u).

    b^pp(u,u) is computed independently: the weighted projection pi of the
    functional q -> <rho c^2 div u, q> - <rho c^2 u.n, q>_bnd through a
    hand-assembled dense mass matrix, plus the boundary penalty, using
    direct quadrature loops over the discrete field (no shared assembly
    code path).
    """
    p = 2
    co = unit_coeffs(lambda_n=100.0 * p * p)
    vel = build_space("vector_lagrange", square1, p)
    pp = build_space("scalar_lagrange", square1, p - 1)
    A2, B2 = assemble_m2_system(vel, pp, co)
    K = (-A2 + B2).toarray()
    nu = vel.ndof
    K11 = K[:nu, :nu]
    K21 = K[nu:, :nu]
    Mp = -K[nu:, nu:]

    uc = RNG.standard_normal(nu)
    u = DiscreteField(vel, uc)
    schur = uc @ K11 @ uc + (K21 @ uc) @ np.linalg.solve(Mp, K21 @ uc)

    # independent dense oracle
    rule = triangle_rule(10)
    mesh = square1
    Mo = np.zeros((pp.ndof, pp.ndof))
    F = np.zeros(pp.ndof)
    a_val = 0.0
    for e in range(mesh.num_triangles):
        gm = mesh.geometry(e)
        det = GeometryMap.dets(gm.jacobian(rule.points))
        phys = gm.points(rule.points)
        wq = rule.weights * det
        rho = co.rho_at(phys)
        cs2 = co.cs2_at(phys)
        b = co.b_at(phys)
        qv, _, _ = pp.eval_basis(e, rule.points, need_grad=False)
        uv, ug, ud = u.evaluate(e, rule.points)
        dofs = pp.dof_map[e]
        Mo[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", wq * rho * cs2,
                                            qv, qv)
        F[dofs] += np.einsum("q,q,qj->j", wq * rho * cs2, ud, qv)
        conv = np.einsum("qcd,qd->qc", ug, b)
        a_val += float((wq * rho) @ (np.einsum("qc,qc->q", conv, conv)
                                     + co.b_inf ** 2
                                     * np.einsum("qc,qc->q", uv, uv)))
    srule = segment_rule(10)
    ts = srule.points[:, 0]
    n_val = 0.0
    for f in np.nonzero(mesh.facet_boundary)[0]:
        fg = FacetGeometry(mesh, f, ts)
        e0, k0, fl0 = fg.sides[0]
        uv, _, _ = u.evaluate(e0, fg.ref_points[0], need_grad=False)
        un = np.einsum("qc,qc->q", uv, fg.normals)
        rho = co.rho_at(fg.points)
        cs2 = co.cs2_at(fg.points)
        qv, _, _ = pp.eval_basis(e0, fg.ref_points[0], need_grad=False)
        h = mesh.facet_length(f)
        w = srule.weights * fg.dline
        F[pp.dof_map[e0]] -= np.einsum("q,q,qj->j", w * rho * cs2, un, qv)
        n_val += float((w * rho * cs2 / h) @ (un * un)) * co.lambda_n
    pi = np.linalg.solve(Mo, F)
    bpp = pi @ Mo @ pi
    oracle = -a_val + n_val + bpp
    assert abs(schur - oracle) <= 1e-9 * max(abs(oracle), 1.0)


# -- method assembly ----------------------------------------------------------

def test_unknown_method_rejected(square1):
    with pytest.raises(ValueError):
        method_spaces("M9", square1, 1)


def test_method_spaces_families(disc1_curved):
    assert method_spaces("M1", disc1_curved, 2)[0].family == "vector_lagrange"
    vel, pp = method_spaces("M2", disc1_curved, 2)
    assert (vel.family, pp.family) == ("vector_lagrange", "scalar_lagrange")
    assert pp.degree == 1
    assert method_spaces("M3", disc1_curved, 2)[0].family == "hdiv_bdm"
    assert method_spaces("M4", disc1_curved, 2)[0].family == "vector_dg"


def test_m3_m4_errors_comparable():
    """Both quasi-optimal methods land within a factor 3 of each other."""
    mesh = make_unit_disc_mesh(2, geom_order=2)
    prob = convergence_problem(2)
    errs = {}
    for m in ("M3", "M4"):
        ms = assemble_method(m, mesh, 2, prob.coeffs, prob.f)
        u = ms.split(solve(ms.system))
        errs[m] = error_norms(u, prob, prob.coeffs, method=m)["l2_error"]
    assert errs["M3"] <= 3 * errs["M4"]
    assert errs["M4"] <= 3 * errs["M3"]


def test_divfree_kernel_embeds_into_dg(square2):
    """On an affine mesh, a divergence-free normal-continuous field is in the
    kernel of the fully discontinuous grad-div form."""
    co = unit_coeffs(lambda_n=40.0)
    bdm = build_space("hdiv_bdm", square2, 1)
    vh = bdm_interpolate(bdm, lambda q: np.column_stack(
        [0.5 - q[:, 1], q[:, 0] - 0.5]))
    dg = build_space("vector_dg", square2, 1)
    udg = _reexpand(vh, dg)
    B = assemble_b_dg(dg, co)
    quad = udg.coefficients @ (B @ udg.coefficients)
    # volume, interior-jump and consistency terms all vanish (div u = 0 and
    # u.n continuous), so only the boundary penalty survives; compute it
    # directly from the traces and match it exactly
    srule = segment_rule(8)
    ts = srule.points[:, 0]
    penalty = 0.0
    for f in np.nonzero(square2.facet_boundary)[0]:
        fg = FacetGeometry(square2, f, ts)
        e0 = fg.sides[0][0]
        uv, _, _ = udg.evaluate(e0, fg.ref_points[0], need_grad=False)
        un = np.einsum("qc,qc->q", uv, fg.normals)
        penalty += co.lambda_n / square2.facet_length(f) \
            * float((srule.weights * fg.dline) @ (un * un))
    assert abs(quad - penalty) <= 1e-10 * max(penalty, 1.0)
    Bint = assemble_b_volume(dg, co)
    assert abs(udg.coefficients @ (Bint @ udg.coefficients)) <= 1e-12


def test_zero_forcing_gives_zero_solution():
    """f = 0: the solve returns u_h = 0, so the recorded error is ||u||."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(1)
    zero = lambda q: np.zeros((len(q), 2))
    for m in ("M1", "M3", "M4"):
        ms = assemble_method(m, mesh, 1, prob.coeffs, zero)
        u = ms.split(solve(ms.system))
        assert np.abs(u.coefficients).max() <= 1e-12
        res = error_norms(u, prob, prob.coeffs, method=m)
        assert res["l2_norm"] <= 1e-12
        ref = error_norms(u, prob, prob.coeffs, method=m)["l2_error"]
        assert abs(res["l2_error"] - ref) <= 1e-14


# -- error norms --------------------------------------------------------------

class _FieldExact:
    """Adapter presenting a DiscreteField of a single element mesh patch as
    exact-solution callables via direct element evaluation."""

    def __init__(self, u=None, grad_u=None, div_u=None):
        self.u = u
        self.grad_u = grad_u
        self.div_u = div_u


def test_error_norms_trivial_cases(square1):
    co = unit_coeffs(lambda_n=100.0)
    space = build_space("vector_lagrange", square1, 1)
    # u_h = 0 against exact u = (1, 0): l2 error is exactly 1
    zero = DiscreteField(space, np.zeros(space.ndof))
    exact = _FieldExact(
        u=lambda q: np.column_stack([np.ones(len(q)), np.zeros(len(q))]),
        grad_u=lambda q: np.zeros((len(q), 2, 2)),
        div_u=lambda q: np.zeros(len(q)))
    res = error_norms(zero, exact, co, method="M1")
    assert abs(res["l2_error"] - 1.0) <= 1e-13
    assert res["l2_norm"] == 0.0
    # xh norm of the constant error: a-part 0.01*|u|^2 + boundary penalty
    assert res["xh_error"] > 0

    # interpolant measured against itself: all errors vanish
    v = lambda q: np.column_stack([q[:, 0], -q[:, 1]])
    u_h = l2_project(space, v)
    same = _FieldExact(
        u=v,
        grad_u=lambda q: np.broadcast_to(np.array([[1.0, 0.0], [0.0, -1.0]]),
                                         (len(q), 2, 2)),
        div_u=lambda q: np.zeros(len(q)))
    res = error_norms(u_h, same, co, method="M1")
    assert res["l2_error"] <= 1e-12
    assert res["xh_error"] <= 1e-11


@pytest.mark.parametrize("method", ["M1", "M3", "M4"])
def test_triple_norm_is_operator_energy(disc1_curved, method):
    """At exact u = 0 the triple-norm error of u_h = sum x_i phi_i is the
    energy x.(A_h + B_h)x of the method's operator pair."""
    co = paper_coefficients(2)
    space, _ = method_spaces(method, disc1_curved, 2)
    x = np.random.default_rng(5).standard_normal(space.ndof)
    zero = _FieldExact(u=lambda q: np.zeros((len(q), 2)),
                       grad_u=lambda q: np.zeros((len(q), 2, 2)),
                       div_u=lambda q: np.zeros(len(q)))
    for k in (8, 10):
        A, B = method_forms(method, space, co, order=k)
        energy = x @ ((A + B) @ x)
        xh = error_norms(DiscreteField(space, x), zero, co, method=method,
                         order=k)["xh_error"]
        assert abs(xh ** 2 - energy) <= 1e-12 * abs(energy)


def test_error_norms_quadrature_stability():
    """Doubling the quadrature order leaves the error unchanged to 3 digits."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(1)
    ms = assemble_method("M3", mesh, 1, prob.coeffs, prob.f)
    u = ms.split(solve(ms.system))
    base = error_norms(u, prob, prob.coeffs, method="M3", order=8)
    fine = error_norms(u, prob, prob.coeffs, method="M3", order=16)
    assert abs(base["l2_error"] - fine["l2_error"]) \
        <= 1e-3 * fine["l2_error"]
    assert abs(base["xh_error"] - fine["xh_error"]) \
        <= 1e-2 * fine["xh_error"]
