"""Bilinear form assembly: hand oracles, symmetry, positivity, consistency."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import (bdm_interpolate, check_symmetry, l2_project,
                      load_vector, volume_matrix)
from gdfem.fespace import (DegreeError, DiscreteField, FeSpace, build_space,
                           quadrature_order)
from gdfem import forms
from gdfem.forms import (METHODS, CoefficientSet, assemble_a_volume,
                         assemble_b_volume, assemble_method, error_norms,
                         l2_norms, method_spaces, paper_coefficients)
from gdfem.linalg import solve
from gdfem.mesh import (FacetGeometry, GeometryMap, make_unit_disc_mesh,
                        make_unit_square_mesh, mesh_size)
from gdfem.problems import convergence_problem, gradrob_problem, \
    locking_problem
from gdfem.quadrature import (UnsupportedOrderError, segment_rule,
                              triangle_rule)

RNG = np.random.default_rng(11)


def unit_coeffs(lambda_b=0.0, lambda_n=0.0):
    return CoefficientSet(cs2=1.0, b_inf=0.1, lambda_b=lambda_b,
                          lambda_n=lambda_n)


# -- coefficient handling -----------------------------------------------------

def test_coefficient_validation():
    with pytest.raises(ValueError):
        CoefficientSet(b_inf=0.0)
    with pytest.raises(ValueError):
        CoefficientSet(lambda_b=-1.0)
    for bad in ({"b_inf": np.inf}, {"lambda_b": np.nan}, {"lambda_b": np.inf},
                {"lambda_n": np.nan}, {"lambda_n": np.inf}):
        with pytest.raises(ValueError):
            CoefficientSet(**bad)
    # c_s^2 is a constant, checked at construction
    for bad in (-1.0, 0.0, np.nan, np.inf, lambda pts: np.ones(len(pts))):
        with pytest.raises(ValueError):
            CoefficientSet(cs2=bad, b_inf=0.1)
    # every field is a number: a callable, a string, None or a bool is a
    # ValueError naming the field, not a TypeError from the range check or
    # the number 1 or 0
    for name, bad in (("lambda_b", lambda x: x), ("lambda_n", "3"),
                      ("cs2", "1"), ("b_inf", None), ("cs2", True),
                      ("b_inf", True), ("lambda_b", False),
                      ("lambda_n", True)):
        with pytest.raises(ValueError, match=name):
            CoefficientSet(**{name: bad})
    for cs2 in (0.0, -4.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            paper_coefficients(2, cs2=cs2)
    # the degree is an integer >= 1: 2.5 would give lambda_b = 62.5
    for p in (0, True, False, 2.5, 2.0, "2"):
        with pytest.raises(DegreeError, match="degree"):
            paper_coefficients(p)


def test_paper_coefficient_defaults():
    co = paper_coefficients(3)
    assert co.lambda_b == 90.0
    assert co.lambda_n == 900.0
    pts = np.array([[0.5, 0.25]])
    assert np.allclose(co.b_at(pts), [[-0.025, 0.05]])
    assert co.b_inf == 0.1


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("method", ["M1", "M3", "M4"])
def test_flow_enters_only_through_its_amplitude(method, p):
    """b = 0.1 s (-y, x) scales every a_h term by s^2 (streamline, zeroth
    order and b-weighted jump terms alike) and leaves b_h alone."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    unit = assemble_method(method, mesh, p, paper_coefficients(p), None)
    for s in (0.3, 2.0, 7.0):
        ms = assemble_method(method, mesh, p,
                             paper_coefficients(p, b_scale=s), None)
        assert (ms.b != unit.b).nnz == 0, s
        want = s * s * unit.a
        assert abs(ms.a - want).max() <= 1e-14 * abs(want).max(), s


def boundary_flow_defect(coeffs, mesh):
    """max |b.n| at 7 uniform interior points of each boundary facet."""
    ts = np.linspace(0.0, 1.0, 9)[1:-1]
    fg = FacetGeometry(mesh, np.nonzero(mesh.facet_boundary)[0], ts)
    bn = np.einsum("fqc,fqc->fq", coeffs.b_at(fg.points), fg.normals)
    return float(np.abs(bn).max(initial=0.0))


def test_rotational_flow_tangential_on_disc():
    """b = 0.1(-y, x) has (near-)vanishing normal trace on the disc boundary."""
    co = unit_coeffs()
    exact = make_unit_disc_mesh(2, geom_order=1)
    # straight facets of the polygonal boundary are chords: |b.n| = O(h)|b|
    assert boundary_flow_defect(co, exact) <= 0.01
    curved = make_unit_disc_mesh(1, geom_order=2)
    assert boundary_flow_defect(co, curved) <= 0.02


# -- hand-computable oracles on the unit square -------------------------------

def test_b_volume_oracle_square(square1):
    """u = (x, y): b(u,u) = int c^2 (div u)^2 = 4 on the unit square."""
    space = build_space("vector_lagrange", square1, 1)
    u = l2_project(space, lambda q: q).coefficients[:, 0]
    B = volume_matrix(space, assemble_b_volume)
    assert abs(u @ (B @ u) - 4.0) <= 1e-12


def test_a_volume_oracle_square(square1):
    """u = (x, y), b = 0.1(-y, x):  (b.grad)u = b, so

    a(u,u) = int |b|^2 + 0.01 int |u|^2 = 0.01*(2/3) + 0.01*(2/3) = 0.04/3.
    """
    space = build_space("vector_lagrange", square1, 1)
    u = l2_project(space, lambda q: q).coefficients[:, 0]
    A = volume_matrix(space, assemble_a_volume, unit_coeffs())
    assert abs(u @ (A @ u) - 0.04 / 3) <= 1e-12


def test_b_dg_oracle_square(square1):
    """u = (x, y) in the DG space with lambda_n = 100:

    interior jumps vanish (u continuous), leaving
      volume:       int (div u)^2            = 4
      consistency: -2 * {div u} * oint u.n   = -2 * 2 * 2 = -8
      penalty:      100 * sum_F h_F^{-1} int (u.n)^2 ds = 100 * (1 + 1) = 200
    (u.n = 1 on the right and top edges of length 1, 0 on the others),
    so b_dg(u,u) = 196.
    """
    ms = assemble_method("M4", square1, 1, unit_coeffs(lambda_n=100.0), None)
    u = l2_project(ms.velocity_space, lambda q: q, order=6).coefficients[:, 0]
    B = ms.b
    assert abs(u @ (B @ u) - 196.0) <= 1e-9


@pytest.mark.parametrize("mesh", ["square2", "disc3_curved"])
def test_b_dg_continuous_space_skips_interior_facets(mesh):
    """The normal jump of a continuous space vanishes, so b_h^DG of M1 stores
    no interior-facet entries beyond the volume pattern.  (Not equality:
    the sparse sum prunes explicit zeros the volume matrix keeps.)"""
    msh = (make_unit_square_mesh(2) if mesh == "square2"
           else make_unit_disc_mesh(3, geom_order=2))
    co = paper_coefficients(2)
    ms = assemble_method("M1", msh, 2, co, None)
    vel = ms.velocity_space
    assert ms.b.nnz <= volume_matrix(vel, assemble_b_volume).nnz


def test_a_dg_matches_a_volume_for_continuous_fields(square2):
    """All jump terms of a_h^DG vanish on a continuous field."""
    co = unit_coeffs(lambda_b=40.0)
    v = lambda q: np.column_stack([np.sin(q[:, 0]) + q[:, 1] ** 2,
                                   q[:, 0] * q[:, 1]])
    lag = build_space("vector_lagrange", square2, 3)
    ul = l2_project(lag, v, order=12)
    A = volume_matrix(lag, assemble_a_volume, co, order=12)
    x = ul.coefficients[:, 0]
    aval = x @ (A @ x)
    ms = assemble_method("M4", square2, 3, co, None, order=12)
    # re-expand the (piecewise-polynomial) Lagrange field in the DG space
    x = _reexpand(ul, ms.velocity_space).coefficients[:, 0]
    adg = x @ (ms.a @ x)
    assert abs(aval - adg) <= 1e-10 * max(abs(aval), 1.0)


def _reexpand(field, dg_space):
    """Element-wise L2 re-expansion of a field in a DG space (affine mesh)."""
    rule = triangle_rule(2 * dg_space.degree + 4)
    coeffs = np.zeros(dg_space.ndof)
    mesh = dg_space.mesh
    for e in range(mesh.num_triangles):
        det = GeometryMap.dets(mesh.geometry([e]).jacobian(rule.points))[0]
        wq = rule.weights * det
        bv = dg_space.eval_basis([e], rule.points)[0][0]
        fv = field.evaluate([e], rule.points)[0][0, :, 0]
        M = np.einsum("q,qic,qjc->ij", wq, bv, bv)
        r = np.einsum("q,qc,qjc->j", wq, fv, bv)
        coeffs[dg_space.dof_map[e]] = np.linalg.solve(M, r)
    return DiscreteField(dg_space, coeffs)


def test_rhs_partition_of_unity(square2):
    """f = (1, 0): component sums of the load vector give int f dx."""
    space = build_space("vector_lagrange", square2, 2)
    rhs = load_vector(space, lambda q: np.column_stack(
        [np.ones(len(q)), np.zeros(len(q))]))
    assert abs(rhs[0::2].sum() - 1.0) <= 1e-12
    assert abs(rhs[1::2].sum()) <= 1e-13


# -- symmetry and positivity --------------------------------------------------

def test_all_matrices_symmetric(disc1_curved):
    """The volume forms, the pair of every single-field method, and M2's
    saddle operator."""
    co = unit_coeffs(lambda_b=40.0, lambda_n=40.0)
    for family in ("vector_lagrange", "hdiv_bdm"):
        space = build_space(family, disc1_curved, 2)
        for A in (volume_matrix(space, assemble_a_volume, co),
                  volume_matrix(space, assemble_b_volume)):
            assert check_symmetry(A, tol=1e-12) >= 0.0
    for method in ("M1", "M3", "M4"):
        ms = assemble_method(method, disc1_curved, 2, co, None)
        for M in (ms.a, ms.b):
            assert check_symmetry(M, tol=1e-12) >= 0.0
    ms = assemble_method("M2", disc1_curved, 2, co, None)
    assert check_symmetry(-ms.a + ms.b, tol=1e-12) >= 0.0


@pytest.mark.parametrize("method", ["M3", "M4"])
def test_gram_matrices_psd(disc1_curved, method):
    """a_h and b_h are PSD up to -1e-10 for 20 random coefficient vectors."""
    co = unit_coeffs(lambda_b=40.0, lambda_n=40.0)
    ms = assemble_method(method, disc1_curved, 2, co, None)
    space = ms.velocity_space
    for M in (ms.a, ms.b):
        scale = abs(M).max()
        for _ in range(20):
            x = RNG.standard_normal(space.ndof)
            x /= np.linalg.norm(x)
            assert x @ (M @ x) >= -1e-10 * scale


# -- M2 saddle system ---------------------------------------------------------

@pytest.mark.parametrize("method", METHODS)
def test_cs2_split_matches_assembly(method):
    """B_h is per unit c_s^2: the pair assembled at c_s^2 = 1 gives
    -A_h + c^2 B_h equal to the operator assembled at c_s^2 = c^2, whose
    B_h is the same, for every method."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    f = convergence_problem(2).f
    unit = assemble_method(method, mesh, 2, paper_coefficients(2), f)
    for c2 in (1.0, 10.0, 1000.0):
        ms = assemble_method(method, mesh, 2, paper_coefficients(2, cs2=c2), f)
        assert (ms.b != unit.b).nnz == 0, c2
        K = ms.system.matrix
        Ks = unit.system_at(c2).matrix
        assert spla.norm(Ks - K, "fro") <= 1e-12 * spla.norm(K, "fro"), c2


@pytest.mark.parametrize("method", METHODS)
def test_load_is_read_only_at_the_operator_size(method):
    """The load of assemble_method (level-1 disc, p=2) is read-only and has
    the size of A_h and B_h, (u_h, p_h) for M2, where it is zero on the
    pseudo-pressure rows and A_h = blockdiag(a_h, 0) stores no entry in a
    pseudo-pressure row or column."""
    prob = convergence_problem(2)
    ms = assemble_method(method, make_unit_disc_mesh(1, geom_order=2), 2,
                         prob.coeffs, prob.f)
    assert not ms.load.flags.writeable
    with pytest.raises(ValueError):
        ms.load[0] = 1.0
    n, nu = len(ms.load), ms.velocity_space.ndof
    assert ms.a.shape == ms.b.shape == (n, n)
    assert n == nu + (0 if ms.pressure_space is None
                      else ms.pressure_space.ndof)
    assert not ms.load[nu:].any()
    assert ms.a[nu:].nnz == ms.a[:, nu:].nnz == 0
    if method == "M2":
        assert n > nu and ms.load[:nu].any()


@pytest.mark.parametrize("method,point_sets,facet_chunks,load,chunk", [
    pytest.param(m, n, nf, load, chunk,
                 id=f"{m}-{n}" + ("" if load else "-no_load")
                 + ("" if chunk is None else f"-chunk{chunk}"))
    for load in (True, False)
    for chunk, counts, facets in ((None, (2, 4, 3, 4), (1, 1, 1, 2)),
                                  (7, (6, 12, 3, 4), (2, 2, 1, 2)))
    for m, n, nf in zip(METHODS, counts, facets)])
def test_assembly_evaluates_each_point_set_once(monkeypatch, method,
                                                point_sets, facet_chunks,
                                                load, chunk):
    """One assembly (A_h, B_h and the load, or the pair alone as the dense
    diagnostics assemble it) evaluates the basis once per space, point
    set and chunk: the elements, and each owner side of the facet sets
    the method has terms on, in chunks of at most forms.CHUNK orbit
    representatives.  On the level-1 disc (24 elements, 30 interior and
    12 boundary facets) the Lagrange methods walk every item, one chunk
    per set at the default CHUNK and 4, 5 and 2 chunks at CHUNK = 7; M3
    and M4 walk the 4 elements of sector 0 and 5 interior and 2 boundary
    facet representatives, one chunk per set at either CHUNK.  No
    earlier table is held when one is evaluated, apart from the other
    owner of the same facet chunk and, for the pseudo-pressure table of
    M2, the velocity table on the same points (D couples the two) or, on
    a boundary chunk, the pseudo-pressure table on the points where the
    velocity trace is evaluated (G couples them).  A facet chunk's
    traces (FeSpace.facet_basis, which every method's facet sets go
    through once per set and chunk, M2's boundary included) are its
    owners' tables concatenated, so those are tracked too."""
    if chunk is not None:
        monkeypatch.setattr(forms, "CHUNK", chunk)
    calls, held, facet_sets = [], [], []
    eval_basis, facet_basis = FeSpace.eval_basis, FeSpace.facet_basis

    def traced_facets(space, fg):
        out = facet_basis(space, fg)
        facet_sets.append(weakref.ref(out[0]))
        return out

    def counted(space, elems, ref_pts):
        assert all(ref() is None for ref in facet_sets)
        alive = [i for i, (ref, _, _) in enumerate(held)
                 if ref() is not None]
        if alive:
            assert alive == [len(held) - 1]
            _, last_space, last_pts = held[-1]
            other_owner = (last_space is space and np.ndim(ref_pts) == 3
                           and np.shape(ref_pts) == np.shape(last_pts))
            pressure = (method == "M2" and last_space is not space
                        and ref_pts is last_pts)
            assert other_owner or pressure
        assert len(elems) <= forms.CHUNK
        calls.append((id(space), ref_pts.ctypes.data, elems.tobytes()))
        out = eval_basis(space, elems, ref_pts)
        held.append((weakref.ref(out[0]), space, ref_pts))
        return out

    monkeypatch.setattr(FeSpace, "eval_basis", counted)
    monkeypatch.setattr(FeSpace, "facet_basis", traced_facets)
    prob = convergence_problem(2)
    f = prob.f if load else None
    ms = assemble_method(method, make_unit_disc_mesh(1, geom_order=2), 2,
                         prob.coeffs, f)
    ms.system_at(10.0)      # evaluates nothing: the load came with the pair
    assert len(calls) == len(set(calls)) == point_sets
    assert len(facet_sets) == facet_chunks


def _csr_parts(M):
    return M.data, M.indices, M.indptr


@pytest.mark.parametrize("chunk", [7, 40])
def test_chunked_assembly_is_bitwise_invariant(monkeypatch, chunk):
    """Assembled in chunks of 7 or 40 elements and facets, every A_h, B_h
    (M2's blocks included) and load on the level-2 disc (96 elements, 132
    interior and 24 boundary facets) equals, bit for bit, the pair and
    load assembled in one chunk, and so do the error norms of a solution
    (k = 1) and of two (k = 2, solved at c_s^2 = 1 and 10)."""
    mesh = make_unit_disc_mesh(2, geom_order=2)
    cells = [(m, p) for p in (1, 2) for m in METHODS
             if not (m == "M2" and p < 2)]

    def assembled(method, p):
        prob = convergence_problem(p)
        ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
        us = np.column_stack([ms.split(solve(ms.system_at(cs2)))[0]
                              .coefficients for cs2 in (1.0, 10.0)])
        norms = [error_norms(DiscreteField(ms.velocity_space, u), prob,
                             prob.coeffs, method, ms.pressure_space)
                 for u in (us[:, :1], us)]
        return ms, norms

    whole = {cell: assembled(*cell) for cell in cells}
    monkeypatch.setattr(forms, "CHUNK", chunk)
    for method, p in cells:
        (ms, norms), (ref, ref_norms) = assembled(method, p), \
            whole[method, p]
        for M, R in ((ms.a, ref.a), (ms.b, ref.b)):
            assert all(np.array_equal(x, y) for x, y in
                       zip(_csr_parts(M), _csr_parts(R))), (method, p)
        assert np.array_equal(ms.load, ref.load), (method, p)
        assert norms == ref_norms, (method, p)


@pytest.mark.parametrize("method,bound", [("M3", 6.5), ("M4", 4.0)])
def test_assembly_peak_is_bounded_by_its_output(method, bound):
    """The memory _assemble allocates at its peak on the level-4 disc at
    p=2 (1,536 elements, whose 256 sector-0 representatives are one chunk;
    2,256 interior facets, whose 376 representatives are one chunk) stays
    below `bound` times the bytes of the CSR pair it returns; evaluating
    every table on all elements or facets at once took 9.1x (M3) and
    4.7x (M4).  Quadrature geometry is cached on the mesh first."""
    mesh = make_unit_disc_mesh(4, geom_order=2)
    vel, pp = method_spaces(method, mesh, 2)
    order = quadrature_order(vel)
    mesh.element_quadrature(order)
    for boundary in (False, True):
        mesh.facet_quadrature(order, boundary)
    prob = convergence_problem(2)
    tracemalloc.start()
    try:
        A, B, _ = forms._assemble(method, forms.Rotation(vel), prob.coeffs,
                                  order, pp, prob.f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = sum(a.nbytes for M in (A, B) for a in _csr_parts(M))
    assert peak <= bound * csr, peak / csr


@pytest.mark.parametrize("bad", [0, -5.0, np.nan, np.inf, "3", None, True,
                                 False],
                         ids=["zero", "negative", "nan", "inf", "str", "none",
                              "true", "false"])
def test_every_cs2_passes_the_number_rule(bad):
    """system_at checks c_s^2 as CoefficientSet does: anything but a
    positive, finite number raises ValueError naming cs2, rather than
    solving a negative-definite system."""
    prob = convergence_problem(1)
    ms = assemble_method("M4", make_unit_disc_mesh(1, geom_order=2), 1,
                         prob.coeffs, prob.f)
    with pytest.raises(ValueError, match="cs2"):
        ms.system_at(bad)


def test_m2_requires_degree_two(square1):
    """M2 needs an integer degree >= 2; a string, a float or a bool is a
    DegreeError naming the degree, checked before the degree is compared."""
    for bad in (1, "2", 2.0, True):
        with pytest.raises(DegreeError, match="degree"):
            method_spaces("M2", square1, bad)


@pytest.mark.parametrize("method,p", [("M2", 1), ("M2", 2.0), ("M1", 0),
                                      ("M3", "1"), ("M4", True)])
def test_method_spaces_asks_check_degree(square1, method, p):
    """method_spaces refuses a degree with check_degree's DegreeError, text
    and all, so a caller can refuse it before building a mesh; both take
    M2 from degree 2 and the other methods from degree 1."""
    with pytest.raises(DegreeError) as spaces:
        method_spaces(method, square1, p)
    with pytest.raises(DegreeError) as rule:
        forms.check_degree(method, p)
    assert str(spaces.value) == str(rule.value)
    assert str(rule.value).startswith(f"{method} degree must be an integer")
    assert [forms.check_degree(m, 2 if m == "M2" else 1)
            for m in METHODS] == [1, 2, 1, 1]


def test_m2_schur_oracle(square1):
    """Eliminating the auxiliary scalar reproduces -a(u,u) + b^pp(u,u).

    b^pp(u,u) is computed independently: the weighted projection pi of the
    functional q -> <c^2 div u, q> - <c^2 u.n, q>_bnd through a
    hand-assembled dense mass matrix, plus the boundary penalty, using
    direct quadrature loops over the discrete field (no shared assembly
    code path).
    """
    p = 2
    co = unit_coeffs(lambda_n=100.0 * p * p)
    ms = assemble_method("M2", square1, p, co, None)
    vel, pp = ms.velocity_space, ms.pressure_space
    K = (-ms.a + ms.b).toarray()
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
        gm = mesh.geometry([e])
        det = GeometryMap.dets(gm.jacobian(rule.points))[0]
        phys = gm.points(rule.points)[0]
        wq = rule.weights * det
        cs2 = co.cs2
        b = co.b_at(phys)
        qv = pp.eval_basis([e], rule.points)[0][0]
        uv, ug, ud = (a[0, :, 0] for a in u.evaluate([e], rule.points))
        dofs = pp.dof_map[e]
        Mo[np.ix_(dofs, dofs)] += np.einsum("q,qi,qj->ij", wq * cs2, qv, qv)
        F[dofs] += np.einsum("q,q,qj->j", wq * cs2, ud, qv)
        conv = np.einsum("qcd,qd->qc", ug, b)
        a_val += float(wq @ (np.einsum("qc,qc->q", conv, conv)
                             + co.b_inf ** 2 * np.einsum("qc,qc->q", uv, uv)))
    srule = segment_rule(10)
    ts = srule.points[:, 0]
    n_val = 0.0
    for f in np.nonzero(mesh.facet_boundary)[0]:
        fg = FacetGeometry(mesh, [f], ts)
        e0 = fg.sides[0][0]
        uv = u.evaluate(e0, fg.ref_points[0])[0][0, :, 0]
        un = np.einsum("qc,qc->q", uv, fg.normals[0])
        cs2 = co.cs2
        qv = pp.eval_basis(e0, fg.ref_points[0])[0][0]
        h = mesh.facet_length(f)
        w = srule.weights * fg.dline[0]
        F[pp.dof_map[e0[0]]] -= np.einsum("q,q,qj->j", w * cs2, un, qv)
        n_val += float((w * cs2 / h) @ (un * un)) * co.lambda_n
    pi = np.linalg.solve(Mo, F)
    bpp = pi @ Mo @ pi
    oracle = -a_val + n_val + bpp
    assert abs(schur - oracle) <= 1e-9 * max(abs(oracle), 1.0)


# -- method assembly ----------------------------------------------------------

def test_unknown_method_rejected(square1):
    with pytest.raises(ValueError):
        method_spaces("M9", square1, 1)


@pytest.mark.parametrize("with_exact", [True, False],
                         ids=["exact", "norm_only"])
def test_error_norms_reject_unknown_method(square1, with_exact):
    """An unknown method is a ValueError before any evaluation, whether or
    not an exact solution is given."""
    prob = convergence_problem(1)
    space = build_space("vector_lagrange", square1, 1)
    u = DiscreteField(space, np.zeros(space.ndof))
    with pytest.raises(ValueError, match="unknown method 'M9'"):
        error_norms(u, prob if with_exact else None, prob.coeffs,
                    method="M9")


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
        u, _ = ms.split(solve(ms.system))
        errs[m] = error_norms(u, prob, prob.coeffs, method=m)[0]["l2_error"]
    assert errs["M3"] <= 3 * errs["M4"]
    assert errs["M4"] <= 3 * errs["M3"]


def test_divfree_kernel_embeds_into_dg(square2):
    """On an affine mesh, a divergence-free normal-continuous field is in the
    kernel of the fully discontinuous grad-div form."""
    co = unit_coeffs(lambda_n=40.0)
    bdm = build_space("hdiv_bdm", square2, 1)
    vh = bdm_interpolate(bdm, lambda q: np.column_stack(
        [0.5 - q[:, 1], q[:, 0] - 0.5]))
    ms = assemble_method("M4", square2, 1, co, None)
    dg = ms.velocity_space
    udg = _reexpand(vh, dg)
    x = udg.coefficients[:, 0]
    B = ms.b
    quad = x @ (B @ x)
    # volume, interior-jump and consistency terms all vanish (div u = 0 and
    # u.n continuous), so only the boundary penalty survives; compute it
    # directly from the traces and match it exactly
    srule = segment_rule(8)
    ts = srule.points[:, 0]
    penalty = 0.0
    for f in np.nonzero(square2.facet_boundary)[0]:
        fg = FacetGeometry(square2, [f], ts)
        e0 = fg.sides[0][0]
        uv = udg.evaluate(e0, fg.ref_points[0])[0][0, :, 0]
        un = np.einsum("qc,qc->q", uv, fg.normals[0])
        penalty += co.lambda_n / square2.facet_length(f) \
            * float((srule.weights * fg.dline[0]) @ (un * un))
    assert abs(quad - penalty) <= 1e-10 * max(penalty, 1.0)
    Bint = volume_matrix(dg, assemble_b_volume)
    assert abs(x @ (Bint @ x)) <= 1e-12


def test_zero_forcing_gives_zero_solution():
    """f = 0: the solve returns u_h = 0, so the recorded error is ||u||."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(1)
    zero = lambda q: np.zeros((len(q), 2))
    for m in ("M1", "M3", "M4"):
        ms = assemble_method(m, mesh, 1, prob.coeffs, zero)
        u, _ = ms.split(solve(ms.system))
        assert np.abs(u.coefficients).max() <= 1e-12
        res, = error_norms(u, prob, prob.coeffs, method=m)
        assert res["l2_norm"] <= 1e-12
        ref = error_norms(u, prob, prob.coeffs, method=m)[0]["l2_error"]
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
    res, = error_norms(zero, exact, co, method="M1")
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
    res, = error_norms(u_h, same, co, method="M1")
    assert res["l2_error"] <= 1e-12
    assert res["xh_error"] <= 1e-11


@pytest.mark.parametrize("method,cs2", [
    pytest.param(m, cs2, id=m if cs2 == 1.0 else f"{m}-cs2={cs2:g}")
    for cs2 in (1.0, 1000.0) for m in ("M1", "M3", "M4")])
def test_triple_norm_is_operator_energy(disc1_curved, method, cs2):
    """At exact u = 0 the triple-norm error of u_h = sum x_i phi_i is the
    energy x.(A_h + c_s^2 B_h)x of the method's operator pair, B_h per unit
    c_s^2; at c_s^2 = 1000 a triple norm that drops the c_s^2 fails."""
    co = paper_coefficients(2, cs2=cs2)
    space, _ = method_spaces(method, disc1_curved, 2)
    x = np.random.default_rng(5).standard_normal(space.ndof)
    zero = _FieldExact(u=lambda q: np.zeros((len(q), 2)),
                       grad_u=lambda q: np.zeros((len(q), 2, 2)),
                       div_u=lambda q: np.zeros(len(q)))
    for k in (8, 10):
        ms = assemble_method(method, disc1_curved, 2, co, None, order=k)
        energy = x @ ((ms.a + cs2 * ms.b) @ x)
        xh = error_norms(DiscreteField(space, x), zero, co, method=method,
                         order=k)[0]["xh_error"]
        assert abs(xh ** 2 - energy) <= 1e-12 * abs(energy)


def test_error_norms_quadrature_stability():
    """Doubling the quadrature order leaves the error unchanged to 3 digits."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(1)
    ms = assemble_method("M3", mesh, 1, prob.coeffs, prob.f)
    u, _ = ms.split(solve(ms.system))
    base, = error_norms(u, prob, prob.coeffs, method="M3", order=8)
    fine, = error_norms(u, prob, prob.coeffs, method="M3", order=16)
    assert abs(base["l2_error"] - fine["l2_error"]) \
        <= 1e-3 * fine["l2_error"]
    assert abs(base["xh_error"] - fine["xh_error"]) \
        <= 1e-2 * fine["xh_error"]


_SWEEP = (1.0, 10.0, 100.0, 1000.0)


@pytest.mark.parametrize("problem,p", [(locking_problem, 2),
                                       (gradrob_problem, 3)],
                         ids=["locking-p2", "gradrob-p3"])
@pytest.mark.parametrize("method", METHODS)
def test_batched_error_norms_match_single(method, problem, p):
    """One l2_norms call on the k columns of a c_s^2 sweep's solutions, as
    a study makes it, gives what k calls on one column each give, and its
    values are error_norms' L2 values of the k columns, bit for bit (the
    locking problem has an exact solution, gradrob only a norm)."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    probs = [problem(cs2, p=p) for cs2 in _SWEEP]
    ms = assemble_method(method, mesh, p, probs[0].coeffs, probs[0].f)
    exact = probs[0] if probs[0].has_exact else None
    xs = [ms.split(solve(ms.system_at(cs2)))[0].coefficients
          for cs2 in _SWEEP]
    u = DiscreteField(ms.velocity_space, np.column_stack(xs))
    batch = l2_norms(u, exact)
    assert len(batch) == len(_SWEEP)
    full = error_norms(u, exact, probs[0].coeffs, method=method,
                       pp_space=ms.pressure_space)
    assert batch == [{k: r[k] for k in ("l2_error", "l2_norm")} for r in full]
    for x, got in zip(xs, batch):
        want, = l2_norms(DiscreteField(ms.velocity_space, x), exact)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if value is None:
                assert got[key] is None, key
            else:
                assert abs(got[key] - value) <= 1e-12 * abs(value), key


@pytest.mark.parametrize("method,point_sets,physical_sets,chunk", [
    pytest.param(m, n, nx, chunk,
                 id=f"{m}-{n}-{nx}"
                 + ("" if chunk is None else f"-chunk{chunk}"))
    for chunk, counts in ((None, ((2, 2), (2, 2), (3, 2), (4, 3))),
                          (7, ((3, 3), (3, 3), (11, 6), (13, 8))))
    for m, (n, nx) in zip(METHODS, counts)])
def test_error_norms_evaluate_each_point_set_once(monkeypatch, method,
                                                  point_sets, physical_sets,
                                                  chunk):
    """One error_norms call on 3 solutions evaluates u_h once per point set
    and chunk: the elements, whole, and each owner side of the facet sets
    the method has terms on, in chunks of at most forms.CHUNK facets (on
    the level-1 disc 5 interior and 2 boundary chunks at CHUNK = 7).  The
    exact u is evaluated once per set of physical points and chunk, which
    the two owners of an interior facet share."""
    if chunk is not None:
        monkeypatch.setattr(forms, "CHUNK", chunk)
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(2)
    vel, pp = method_spaces(method, mesh, 2)
    calls, exact_calls = [], []
    evaluate = DiscreteField.evaluate

    def counted(field, elems, ref_pts):
        if field.space is vel:
            calls.append((ref_pts.ctypes.data, np.asarray(elems).tobytes()))
        return evaluate(field, elems, ref_pts)

    def exact_u(pts):
        exact_calls.append(len(pts))
        return prob.u(pts)

    monkeypatch.setattr(DiscreteField, "evaluate", counted)
    error_norms(DiscreteField(vel, RNG.standard_normal((vel.ndof, 3))),
                replace(prob, u=exact_u), prob.coeffs, method=method,
                pp_space=pp)
    assert len(calls) == len(set(calls)) == point_sets
    assert len(exact_calls) == physical_sets


@pytest.mark.parametrize("method,sets", [
    ("M1", {"boundary"}), ("M2", {"boundary"}), ("M3", {"interior"}),
    ("M4", {"interior", "boundary"})])
def test_error_norms_build_only_their_facet_sets(monkeypatch, method, sets):
    """The error norms map the geometry of the facet sets the method has
    terms on, and of no other set."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    prob = convergence_problem(2)
    vel, pp = method_spaces(method, mesh, 2)
    requested = set()
    facet_quadrature = type(mesh).facet_quadrature

    def recorded(self, order, boundary):
        requested.add("boundary" if boundary else "interior")
        return facet_quadrature(self, order, boundary)

    monkeypatch.setattr(type(mesh), "facet_quadrature", recorded)
    error_norms(DiscreteField(vel, RNG.standard_normal(vel.ndof)), prob,
                prob.coeffs, method=method, pp_space=pp)
    assert requested == sets


@pytest.mark.parametrize("method", METHODS)
def test_vector_coefficients_are_one_column(disc1_curved, method):
    """A coefficient vector (ndof,) is the one column (ndof, 1): its field
    evaluates, and its error norms come out, bit for bit as the explicit
    column's, the field axis and the one-dict list included."""
    prob = convergence_problem(2)
    vel, pp = method_spaces(method, disc1_curved, 2)
    x = RNG.standard_normal(vel.ndof)
    vector, column = DiscreteField(vel, x), DiscreteField(vel, x[:, None])
    assert vector.coefficients.shape == (vel.ndof, 1)
    assert np.array_equal(vector.coefficients, column.coefficients)
    _, fg = disc1_curved.facet_quadrature(6, boundary=False)
    for elems, ref in ((np.arange(disc1_curved.num_triangles),
                        triangle_rule(6).points),
                       (fg.sides[1][0], fg.ref_points[1])):
        for got, want in zip(vector.evaluate(elems, ref),
                             column.evaluate(elems, ref)):
            assert got.shape[2] == 1
            assert np.array_equal(got, want)
    for exact in (prob, None):
        norms = error_norms(vector, exact, prob.coeffs, method=method,
                            pp_space=pp)
        assert len(norms) == 1
        assert norms == error_norms(column, exact, prob.coeffs,
                                    method=method, pp_space=pp)


@pytest.mark.parametrize("bad", [True, 2.5, "4"], ids=["true", "float", "str"])
def test_assembly_and_norm_orders_are_integers(square1, bad):
    """A quadrature order that is not an integer fails in assembly and in
    the error norms, also when the mesh already holds the geometry of the
    integer it equals (True == 1 hashes like 1)."""
    square1.element_quadrature(1)
    square1.facet_quadrature(1, boundary=True)
    prob = convergence_problem(1)
    with pytest.raises(UnsupportedOrderError, match="order"):
        square1.element_quadrature(bad)
    with pytest.raises(UnsupportedOrderError, match="order"):
        assemble_method("M1", square1, 1, prob.coeffs, prob.f, order=bad)
    space = build_space("vector_lagrange", square1, 1)
    with pytest.raises(UnsupportedOrderError, match="order"):
        error_norms(DiscreteField(space, np.zeros(space.ndof)), prob,
                    prob.coeffs, method="M1", order=bad)
