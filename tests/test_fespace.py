"""Finite element spaces: dof counts, conformity, interpolation, Piola maps."""

import numpy as np
import pytest

from conftest import bdm_interpolate, l2_project
from gdfem.fespace import (FAMILIES, DegreeError, DiscreteField, bdm_basis,
                           bdm_moment_fields, build_space)
from gdfem.mesh import (FacetGeometry, GeometryMap, facet_ref_points,
                        make_unit_disc_mesh, make_unit_square_mesh)
from gdfem.quadrature import segment_rule, triangle_rule
from gdfem.reference import (EDGE_VERTICES, REF_VERTICES, eval_monomials,
                             lattice_points, monomial_exponents,
                             shifted_legendre)

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
    # the degree is an integer: True is not degree 1, and 2.0 is a
    # DegreeError, not a TypeError from arange
    for family in FAMILIES:
        for bad in (True, False, 2.0, 1.5, "2"):
            with pytest.raises(DegreeError, match="degree"):
                build_space(family, square1, bad)
    with pytest.raises(ValueError):
        DiscreteField(build_space("vector_dg", square1, 1), np.zeros(3))


@pytest.mark.parametrize("call,family,numpy_elems", [
    (call, family, numpy_elems)
    for call, family in [("geometry", None)] + [
        (call, family) for call in ("eval_basis", "evaluate")
        for family in FAMILIES]
    for numpy_elems in (True, False)])
def test_int_element_names_the_array_convention(disc1_curved, call, family,
                                                numpy_elems):
    """Geometry, bases and fields take an int array of elements.  A bare int
    element, a Python int or a NumPy integer scalar, is refused with a
    ValueError naming that convention, rather than an IndexError, an einsum
    ValueError or a TypeError from inside the batch code; the one-element
    list or array [0] works and keeps its batch axis."""
    pts = np.array([[0.2, 0.3], [0.1, 0.6]])
    if call == "geometry":
        def run(elems):
            return [disc1_curved.geometry(elems).points(pts)]
    else:
        space = build_space(family, disc1_curved, 2)
        target = (space if call == "eval_basis"
                  else DiscreteField(space, np.ones(space.ndof)))

        def run(elems):
            return getattr(target, call)(elems, pts)
    bare, batch = (np.intp(0), np.array([0])) if numpy_elems else (0, [0])
    with pytest.raises(ValueError, match="elems must be a 1-D int array"):
        run(bare)
    assert all(a is None or a.shape[:2] == (1, len(pts)) for a in run(batch))


# -- conformity ---------------------------------------------------------------

def _trace_pair(mesh, space, coeffs_vec, f, ts):
    """Both-side traces (q, 2) of a field on interior facet f at params ts."""
    field = DiscreteField(space, coeffs_vec)
    fg = FacetGeometry(mesh, [f], ts)
    return [field.evaluate(e, rp)[0][0, :, 0]
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
        normals = FacetGeometry(mesh, [f], ts).normals[0]
        a, b = _trace_pair(mesh, space, c, f, ts)
        jn = np.einsum("qc,qc->q", a - b, normals)
        assert np.abs(jn).max() <= 1e-11
        tang = np.column_stack([-normals[:, 1], normals[:, 0]])
        if np.abs(np.einsum("qc,qc->q", a - b, tang)).max() > 1e-6:
            saw_tangential_jump = True
    assert saw_tangential_jump


def test_partition_of_unity(square2):
    pts = RNG.uniform(0.05, 0.4, (5, 2))
    for p in (1, 2, 3):
        space = build_space("scalar_lagrange", square2, p)
        vals, _, _ = space.eval_basis([0], pts)
        assert np.abs(vals[0].sum(axis=1) - 1.0).max() <= 1e-12
        vspace = build_space("vector_lagrange", square2, p)
        vvals, _, _ = vspace.eval_basis([0], pts)
        assert np.abs(vvals[0].sum(axis=1) - 1.0).max() <= 1e-12


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
            phys = square2.geometry([e]).points(pts)[0]
            got = vh.evaluate([e], pts)[0][0, :, 0]
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
        gm = square2.geometry([e])
        det = GeometryMap.dets(gm.jacobian(rule.points))[0]
        phys = gm.points(rule.points)[0]
        mean_div = float((rule.weights * det) @
                         (2 * phys[:, 0] + 2 * phys[:, 1]))
        mean_div /= float(rule.weights @ det)
        div = vh.evaluate([e], rule.points)[2][0, :, 0]
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
        _, _, div = vh.evaluate([e], pts)
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
        _, grads, div = space.eval_basis([e], pts)
        d = div[0] @ c
        assert np.abs(d).max() <= 1e-12
        # divergence is consistent with the trace of the gradient
        g = np.einsum("qjcd,j->qcd", grads[0], c)
        assert np.abs(g[:, 0, 0] + g[:, 1, 1] - d).max() <= 1e-12


@pytest.mark.parametrize("family,p", [("vector_dg", 2), ("hdiv_bdm", 2),
                                      ("vector_lagrange", 2)])
def test_gradients_match_finite_differences(family, p):
    """Basis gradients on a curved element agree with finite differences."""
    mesh = make_unit_disc_mesh(0, geom_order=2)
    e = [0]
    assert not mesh.geometry(e).affine
    space = build_space(family, mesh, p)
    c = RNG.standard_normal(space.ndof)
    field = DiscreteField(space, c)
    gm = mesh.geometry(e)
    rp = np.array([[0.31, 0.24], [0.2, 0.45]])
    _, grads, div = (a[0, :, 0] for a in field.evaluate(e, rp))
    h = 1e-6
    for q, r in enumerate(rp):
        jac = gm.jacobian(np.array([r]))[0, 0]
        fd = np.empty((2, 2))
        for d in range(2):
            step = np.zeros(2)
            step[d] = h
            vp, _, _ = field.evaluate(e, np.array([r + step]))
            vm, _, _ = field.evaluate(e, np.array([r - step]))
            fd[:, d] = (vp[0, 0, 0] - vm[0, 0, 0]) / (2 * h)
        fd_phys = fd @ np.linalg.inv(jac)
        assert np.abs(fd_phys - grads[q]).max() <= 1e-5
        assert abs(div[q] - (grads[q, 0, 0] + grads[q, 1, 1])) <= 1e-12


# -- the Piola map: derivative term on curved elements only -------------------

def _piola_reference(space, elems, ref, u, g):
    """The Piola map of reference shapes u, g with the derivative term
    formed on every element, zero on affine ones: the map as it was before
    that term was restricted to the curved elements."""
    gm = space.mesh.geometry(elems)
    jac = gm.jacobian(ref)
    det = GeometryMap.dets(jac)
    P = jac / det[..., None, None]
    vals = np.einsum("...qck,...qik->...qic", P, u)
    div = (g[..., 0, 0] + g[..., 1, 1]) / det[..., None]
    jinv = GeometryMap.inv(jac)
    dJ = np.zeros(jac.shape + (2,))
    dJ[gm.curved] = gm.curved_jacobian_derivative(ref)
    ddet = det[..., None] * np.einsum("...ij,...jie->...e", jinv, dJ)
    dP = (dJ / det[..., None, None, None]
          - jac[..., None] * ddet[..., None, None, :]
          / (det ** 2)[..., None, None, None])
    grads = np.einsum("...qckd,...qik->...qicd", np.einsum(
        "...qcke,...qed->...qckd", dP, jinv), u)
    grads += np.einsum("...qcked,...qike->...qicd", np.einsum(
        "...qck,...qed->...qcked", P, jinv), g)
    return vals, grads, div


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("family", ["vector_dg", "hdiv_bdm"])
@pytest.mark.parametrize("batch", ["affine", "curved", "mixed", "one_affine",
                                   "one_curved"])
@pytest.mark.parametrize("points", ["shared", "per_element"])
def test_piola_map_matches_full_derivative_formula(disc1_curved, family,
                                                   batch, points):
    """The derivative of the Piola matrix is formed on the curved elements
    of a batch only; values, gradients and divergences of the basis and of
    a field equal the formula that forms it on every element."""
    mesh = disc1_curved
    space = build_space(family, mesh, 2)
    curved = mesh.geometry(np.arange(mesh.num_triangles)).curved
    affine = np.setdiff1d(np.arange(mesh.num_triangles), curved)
    assert len(curved) and len(affine)
    elems = {"affine": affine, "curved": curved,
             "mixed": np.arange(mesh.num_triangles),
             "one_affine": affine[:1], "one_curved": curved[:1]}[batch]
    if points == "shared":
        ref = triangle_rule(6).points
    else:
        ref = RNG.uniform(0.05, 0.45, (len(elems), 5, 2))
    coeffs = RNG.standard_normal((space.ndof, 1))
    for c, got in ((None, space.eval_basis(elems, ref)),
                   (coeffs, DiscreteField(space, coeffs).evaluate(elems,
                                                                  ref))):
        u, g = space._reference_shapes(elems, ref, c)
        want = _piola_reference(space, elems, ref, u, g)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            _close(a, b)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["disc1_curved", "square2"])
def test_bdm_basis_is_dual_to_reference_moments(request, mesh_name, p):
    """Each element's BDM basis is dual to the space's dofs: the facet
    moments (1/chord) int_F (phi . n_F) L_j(t_F) ds in the global facet
    parameter and the interior moments int_K phi . J^-T w dx against the
    reference fields w, curved elements included.  And eval_basis is the
    per-element scale (the owner's sign times ref length / chord, and
    (-1)^j on a flipped edge; 1 inside) times the Piola image of the one
    reference table."""
    mesh = request.getfixturevalue(mesh_name)
    space = build_space("hdiv_bdm", mesh, p)
    elems = np.arange(mesh.num_triangles)
    nloc, nf = space.dof_map.shape[1], 3 * (p + 1)
    moments = np.zeros((len(elems), nloc, nloc))
    srule = segment_rule(2 * p)
    ts = srule.points[:, 0]
    wleg = srule.weights * np.array([shifted_legendre(j, ts)
                                     for j in range(p + 1)])
    for k in range(3):
        facets = mesh.elem_facets[:, k]
        fg = FacetGeometry(mesh, facets, ts)
        rp = facet_ref_points(k, ts, mesh.elem_flipped[:, k])
        un = np.einsum("eqic,eqc->eqi", space.eval_basis(elems, rp)[0],
                       fg.normals)
        moments[:, k * (p + 1):(k + 1) * (p + 1)] = np.einsum(
            "jq,eqi,eq->eji", wleg, un, fg.dline) \
            / mesh.facet_length(facets)[:, None, None]
    vrule = triangle_rule(2 * p)
    jac = mesh.geometry(elems).jacobian(vrule.points)
    w = np.einsum("eqdc,qmd->eqmc", GeometryMap.inv(jac),
                  bdm_moment_fields(p, vrule.points))
    moments[:, nf:] = np.einsum(
        "q,eq,eqic,eqmc->emi", vrule.weights, GeometryMap.dets(jac),
        space.eval_basis(elems, vrule.points)[0], w)
    assert np.abs(moments - np.eye(nloc)).max() <= 1e-12

    owner = mesh.facet_elems[mesh.elem_facets, 0] == elems[:, None]
    ell = np.array([np.linalg.norm(REF_VERTICES[b] - REF_VERTICES[a])
                    for a, b in EDGE_VERTICES])
    d = np.ones((len(elems), nloc))
    for e, k, j in np.ndindex(len(elems), 3, p + 1):
        d[e, k * (p + 1) + j] = ((1 if owner[e, k] else -1) * ell[k]
                                 / mesh.facet_length(mesh.elem_facets[e, k])
                                 * (-1) ** (j * mesh.elem_flipped[e, k]))
    ref = triangle_rule(6).points
    exps, C = monomial_exponents(p), bdm_basis(p).reshape(-1, 2, nloc)
    table = (np.einsum("qm,mci->qic", eval_monomials(exps, ref), C),
             np.einsum("qmd,mci->qicd", eval_monomials(exps, ref, 1), C))
    vals, grads, div = _piola_reference(space, elems, ref, *table)
    s = (1 / d)[:, None]
    for got, want in zip(space.eval_basis(elems, ref),
                         (vals * s[..., None], grads * s[..., None, None],
                          div * s)):
        _close(got, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluation_contract(monkeypatch, disc1_curved, family):
    """eval_basis and DiscreteField.evaluate return (values, gradients,
    divergences) of shapes (E, q, n, 2), (E, q, n, 2, 2) and (E, q, n)
    for a vector family, n the basis or field axis, and (values, None,
    None) with values (E, q, n) for scalar_lagrange, which maps no
    geometry; for shared (q, 2) points, per-element facet points
    (E, q, 2) and a one-element batch alike."""
    mesh = disc1_curved
    space = build_space(family, mesh, 2)
    field = DiscreteField(space, RNG.standard_normal((space.ndof, 3)))
    _, fg = mesh.facet_quadrature(6, boundary=False)
    geometry_calls = []
    geometry = type(mesh).geometry

    def counted(self, elems):
        geometry_calls.append(len(elems))
        return geometry(self, elems)

    monkeypatch.setattr(type(mesh), "geometry", counted)
    for elems, ref in ((np.arange(mesh.num_triangles),
                        triangle_rule(6).points),
                       (fg.sides[1][0], fg.ref_points[1]),
                       (np.array([0]), np.array([[0.2, 0.3]]))):
        for evaluate, n in ((space.eval_basis, space.dof_map.shape[1]),
                            (field.evaluate, 3)):
            vals, grads, div = evaluate(elems, ref)
            lead = (len(elems), ref.shape[-2], n)
            if family == "scalar_lagrange":
                assert vals.shape == lead
                assert grads is None and div is None
            else:
                assert vals.shape == lead + (2,)
                assert grads.shape == lead + (2, 2)
                assert div.shape == lead
    assert (geometry_calls == []) == (family == "scalar_lagrange")


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
        gm = square1.geometry([e])
        det = GeometryMap.dets(gm.jacobian(rule.points))[0]
        phys = gm.points(rule.points)[0]
        wq = rule.weights * det
        bv = space.eval_basis([e], rule.points)[0][0]
        dofs = space.dof_map[e]
        A[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", wq, bv, bv)
        rhs[dofs] += np.einsum("q,q,qj->j", wq, f(phys), bv)
    oracle = np.linalg.solve(A, rhs)
    assert np.abs(proj.coefficients[:, 0] - oracle).max() <= 1e-12


def test_l2_project_reproduces_space_members(square2, disc1_curved):
    v = lambda q: np.column_stack([q[:, 0] + q[:, 1] ** 2, 1 - q[:, 0] ** 2])
    pts = np.array([[0.2, 0.3], [0.4, 0.15]])
    # affine mesh: the quadratic field is in the space, reproduced exactly
    space = build_space("vector_lagrange", square2, 2)
    proj = l2_project(space, v)
    for e in (0, square2.num_triangles - 1):
        phys = square2.geometry([e]).points(pts)[0]
        got = proj.evaluate([e], pts)[0][0, :, 0]
        assert np.abs(got - v(phys)).max() <= 1e-11
    # curved mesh: the map is non-affine, so only near-best approximation
    cspace = build_space("vector_lagrange", disc1_curved, 2)
    cproj = l2_project(cspace, v)
    for e in range(disc1_curved.num_triangles):
        phys = disc1_curved.geometry([e]).points(pts)[0]
        got = cproj.evaluate([e], pts)[0][0, :, 0]
        assert np.abs(got - v(phys)).max() <= 5e-3


def test_bdm_interpolate_requires_bdm(square1):
    space = build_space("vector_dg", square1, 1)
    with pytest.raises(ValueError):
        bdm_interpolate(space, lambda q: q)
