"""Finite element spaces: dof counts, conformity, interpolation, Piola maps."""

import numpy as np
import pytest

from gdfem.fespace import (DegreeError, DiscreteField, bdm_interpolate,
                           build_space, l2_project)
from gdfem.mesh import (FacetGeometry, GeometryMap, make_unit_disc_mesh,
                        make_unit_square_mesh)
from gdfem.quadrature import triangle_rule
from gdfem.reference import lattice_points

RNG = np.random.default_rng(7)


# -- dimensions ---------------------------------------------------------------

def test_dof_counts_square1(square1):
    assert build_space("vector_lagrange", square1, 1).ndof == 8
    assert build_space("scalar_lagrange", square1, 2).ndof == 4 + 5
    # BDM_1: 2 normal moments per facet, 5 facets, no interior dofs
    assert build_space("hdiv_bdm", square1, 1).ndof == 10
    # discontinuous [P1]^2: 6 per triangle
    assert build_space("vector_dg", square1, 1).ndof == 12
    # BDM_2: 3 per facet + p^2 - 1 = 3 interior per element
    assert build_space("hdiv_bdm", square1, 2).ndof == 15 + 6


def test_dof_counts_disc():
    mesh = make_unit_disc_mesh(0)
    nv, nt, nf = mesh.num_vertices, mesh.num_triangles, mesh.num_facets
    assert build_space("scalar_lagrange", mesh, 3).ndof == nv + 2 * nf + nt
    assert build_space("vector_lagrange", mesh, 2).ndof == 2 * (nv + nf)
    assert build_space("vector_dg", mesh, 2).ndof == 12 * nt
    space = build_space("hdiv_bdm", mesh, 1)
    assert space.ndof == 2 * nf
    # every boundary facet contributes p + 1 constrained normal dofs
    assert len(space.constrained_dofs) == 2 * int(mesh.facet_boundary.sum())


def test_invalid_spaces_rejected(square1):
    with pytest.raises(ValueError):
        build_space("nope", square1, 1)
    with pytest.raises(DegreeError):
        build_space("vector_lagrange", square1, 0)
    with pytest.raises(ValueError):
        DiscreteField(build_space("vector_dg", square1, 1), np.zeros(3))


# -- conformity ---------------------------------------------------------------

def _trace_pair(mesh, space, coeffs_vec, f, ts):
    """Both-side traces of a field on interior facet f at params ts."""
    field = DiscreteField(space, coeffs_vec)
    fg = FacetGeometry(mesh, f, ts)
    return [field.evaluate(e, rp, need_grad=False)[0]
            for (e, _, _), rp in zip(fg.sides, fg.ref_points)]


@pytest.mark.parametrize("geom", [1, 2])
def test_lagrange_continuity(geom):
    mesh = make_unit_disc_mesh(1, geom_order=geom)
    space = build_space("vector_lagrange", mesh, 3)
    c = RNG.standard_normal(space.ndof)
    ts = np.array([0.17, 0.55, 0.93])
    for f in np.nonzero(~mesh.facet_boundary)[0]:
        a, b = _trace_pair(mesh, space, c, f, ts)
        assert np.abs(a - b).max() <= 1e-11


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bdm_normal_continuity(p):
    mesh = make_unit_disc_mesh(1, geom_order=2)
    space = build_space("hdiv_bdm", mesh, p)
    c = RNG.standard_normal(space.ndof)
    ts = np.array([0.2, 0.5, 0.8])
    saw_tangential_jump = False
    for f in np.nonzero(~mesh.facet_boundary)[0]:
        fg = FacetGeometry(mesh, f, ts)
        a, b = _trace_pair(mesh, space, c, f, ts)
        jn = np.einsum("qc,qc->q", a - b, fg.normals)
        assert np.abs(jn).max() <= 1e-11
        tang = np.column_stack([-fg.normals[:, 1], fg.normals[:, 0]])
        if np.abs(np.einsum("qc,qc->q", a - b, tang)).max() > 1e-6:
            saw_tangential_jump = True
    assert saw_tangential_jump


def test_partition_of_unity(square2):
    pts = RNG.uniform(0.05, 0.4, (5, 2))
    for p in (1, 2, 3):
        space = build_space("scalar_lagrange", square2, p)
        vals, _, _ = space.eval_basis(0, pts)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-12
        vspace = build_space("vector_lagrange", square2, p)
        vvals, _, _ = vspace.eval_basis(0, pts)
        assert np.abs(vvals.sum(axis=1) - 1.0).max() <= 1e-12


# -- interpolation ------------------------------------------------------------

def test_bdm_interpolation_reproduces_polynomials(square2):
    """Degree-p vector polynomials are reproduced exactly (affine mesh)."""
    cases = {1: lambda q: np.column_stack([1 + 2 * q[:, 0] - q[:, 1],
                                           3 - q[:, 0] + q[:, 1]]),
             2: lambda q: np.column_stack([q[:, 0] ** 2 - q[:, 1],
                                           q[:, 0] + q[:, 1] ** 2])}
    pts = RNG.uniform(0.1, 0.3, (4, 2))
    for p, v in cases.items():
        space = build_space("hdiv_bdm", square2, p)
        vh = bdm_interpolate(space, v)
        for e in (0, 3, 5):
            phys = square2.geometry(e).points(pts)
            got, _, _ = vh.evaluate(e, pts, need_grad=False)
            assert np.abs(got - v(phys)).max() <= 1e-10


def test_bdm_commuting_diagram(square2):
    """div of the interpolant equals the element-wise L2 projection of div v.

    For p = 1 the divergence of the interpolant is piecewise constant, so it
    must match the element mean of div v = 2x + 2y.
    """
    v = lambda q: np.column_stack([q[:, 0] ** 2, q[:, 1] ** 2])
    space = build_space("hdiv_bdm", square2, 1)
    vh = bdm_interpolate(space, v, order=8)
    rule = triangle_rule(8)
    for e in range(square2.num_triangles):
        gm = square2.geometry(e)
        det = GeometryMap.dets(gm.jacobian(rule.points))
        phys = gm.points(rule.points)
        mean_div = float((rule.weights * det) @
                         (2 * phys[:, 0] + 2 * phys[:, 1]))
        mean_div /= float(rule.weights @ det)
        _, _, div = vh.evaluate(e, rule.points)
        assert np.abs(div - mean_div).max() <= 1e-10


@pytest.mark.parametrize("p", [1, 2])
def test_bdm_divfree_preserved_on_curved_mesh(p):
    """Interpolating a divergence-free field stays divergence-free (Piola)."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    space = build_space("hdiv_bdm", mesh, p)
    vh = bdm_interpolate(space, lambda q: np.column_stack([-q[:, 1], q[:, 0]]),
                         order=10)
    pts = RNG.uniform(0.05, 0.4, (6, 2))
    for e in range(mesh.num_triangles):
        _, _, div = vh.evaluate(e, pts)
        assert np.abs(div).max() <= 1e-10


def test_vector_dg_piola_preserves_reference_divfree():
    """A reference-divergence-free DG field has zero physical divergence.

    This is the property of the contravariant Piola map that makes the fully
    discontinuous method locking-free on curved elements; the plain
    component-wise map destroys it.
    """
    mesh = make_unit_disc_mesh(1, geom_order=2)
    p = 2
    space = build_space("vector_dg", mesh, p)
    lat = lattice_points(p)
    # local coefficients of the reference field (-y_ref, x_ref)
    c = np.zeros(2 * len(lat))
    c[0::2] = -lat[:, 1]
    c[1::2] = lat[:, 0]
    pts = RNG.uniform(0.05, 0.4, (6, 2))
    for e in range(mesh.num_triangles):
        vals, grads, div = space.eval_basis(e, pts)
        d = div @ c
        assert np.abs(d).max() <= 1e-12
        # divergence is consistent with the trace of the gradient
        g = np.einsum("qjcd,j->qcd", grads, c)
        assert np.abs(g[:, 0, 0] + g[:, 1, 1] - d).max() <= 1e-12


@pytest.mark.parametrize("family,p", [("vector_dg", 2), ("hdiv_bdm", 2),
                                      ("vector_lagrange", 2)])
def test_gradients_match_finite_differences(family, p):
    """Basis gradients on a curved element agree with finite differences."""
    mesh = make_unit_disc_mesh(0, geom_order=2)
    e = 0
    assert mesh.is_curved(e)
    space = build_space(family, mesh, p)
    c = RNG.standard_normal(space.ndof)
    field = DiscreteField(space, c)
    gm = mesh.geometry(e)
    rp = np.array([[0.31, 0.24], [0.2, 0.45]])
    vals, grads, div = field.evaluate(e, rp)
    h = 1e-6
    for q, r in enumerate(rp):
        jac = gm.jacobian(np.array([r]))[0]
        fd = np.empty((2, 2))
        for d in range(2):
            step = np.zeros(2)
            step[d] = h
            vp, _, _ = field.evaluate(e, np.array([r + step]), need_grad=False)
            vm, _, _ = field.evaluate(e, np.array([r - step]), need_grad=False)
            fd[:, d] = (vp[0] - vm[0]) / (2 * h)
        fd_phys = fd @ np.linalg.inv(jac)
        assert np.abs(fd_phys - grads[q]).max() <= 1e-5
        assert abs(div[q] - (grads[q, 0, 0] + grads[q, 1, 1])) <= 1e-12


# -- projection ---------------------------------------------------------------

def test_l2_project_matches_dense_oracle(square1):
    """Projection of x^2 onto P1 agrees with dense normal equations."""
    space = build_space("scalar_lagrange", square1, 1)
    f = lambda q: q[:, 0] ** 2
    proj = l2_project(space, f, order=8)
    rule = triangle_rule(8)
    A = np.zeros((space.ndof, space.ndof))
    rhs = np.zeros(space.ndof)
    for e in range(square1.num_triangles):
        gm = square1.geometry(e)
        det = GeometryMap.dets(gm.jacobian(rule.points))
        phys = gm.points(rule.points)
        wq = rule.weights * det
        bv, _, _ = space.eval_basis(e, rule.points, need_grad=False)
        dofs = space.dof_map[e]
        A[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", wq, bv, bv)
        rhs[dofs] += np.einsum("q,q,qj->j", wq, f(phys), bv)
    oracle = np.linalg.solve(A, rhs)
    assert np.abs(proj.coefficients - oracle).max() <= 1e-12


def test_l2_project_reproduces_space_members(square2, disc1_curved):
    v = lambda q: np.column_stack([q[:, 0] + q[:, 1] ** 2, 1 - q[:, 0] ** 2])
    pts = np.array([[0.2, 0.3], [0.4, 0.15]])
    # affine mesh: the quadratic field is in the space, reproduced exactly
    space = build_space("vector_lagrange", square2, 2)
    proj = l2_project(space, v)
    for e in (0, square2.num_triangles - 1):
        phys = square2.geometry(e).points(pts)
        got, _, _ = proj.evaluate(e, pts, need_grad=False)
        assert np.abs(got - v(phys)).max() <= 1e-11
    # curved mesh: the map is non-affine, so only near-best approximation
    cspace = build_space("vector_lagrange", disc1_curved, 2)
    cproj = l2_project(cspace, v)
    for e in range(disc1_curved.num_triangles):
        phys = disc1_curved.geometry(e).points(pts)
        got, _, _ = cproj.evaluate(e, pts, need_grad=False)
        assert np.abs(got - v(phys)).max() <= 5e-3


def test_bdm_interpolate_requires_bdm(square1):
    space = build_space("vector_dg", square1, 1)
    with pytest.raises(ValueError):
        bdm_interpolate(space, lambda q: q)
