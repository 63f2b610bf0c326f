"""Shared fixtures and helpers.

Expensive study runs (used by the acceptance tests) are session-scoped so
they execute once even when several tests assert on them.  The field
constructors the tests compare against (BDM interpolation, L2 projection,
the gradrob potential) live here too: the library itself never needs them.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gdfem.cli import (STUDIES, StudyReport, _csv_header,
                       run_convergence, run_gradrob, run_locking)
from gdfem import forms
from gdfem.fespace import (DiscreteField, bdm_moment_fields, eval_pointwise,
                           quadrature_order)
from gdfem.linalg import assemble_csr, assemble_vector
from gdfem.mesh import (FacetGeometry, GeometryMap, make_unit_disc_mesh,
                        make_unit_square_mesh)
from gdfem.quadrature import segment_rule, triangle_rule
from gdfem.reference import shifted_legendre


@pytest.fixture(scope="session")
def square1():
    return make_unit_square_mesh(1)


@pytest.fixture(scope="session")
def square2():
    return make_unit_square_mesh(2)


@pytest.fixture(scope="session")
def disc1_curved():
    return make_unit_disc_mesh(1, geom_order=2)


@pytest.fixture(scope="session")
def convergence_report():
    """Default convergence study for M3/M4, p = 1..3 (acceptance criterion 1)."""
    report, warnings = run_convergence(p_list=(1, 2, 3), methods=("M3", "M4"))
    assert not warnings
    return report


@pytest.fixture(scope="session")
def convergence_m1p4_report():
    """M1 at p = 4 (its divergence-free-subspace-stable degree)."""
    report, warnings = run_convergence(p_list=(4,), methods=("M1",))
    assert not warnings
    return report


@pytest.fixture(scope="session")
def convergence_rest_report():
    """The hconv cells the two fixtures above leave out: M1 and M2 at
    p = 1..3, M2, M3 and M4 at p = 4.  Only the committed-output check
    reads it, so that every cell of hconv.csv is compared."""
    report, warnings = run_convergence(p_list=(1, 2, 3), methods=("M1", "M2"))
    p4, p4_warnings = run_convergence(p_list=(4,), methods=("M2", "M3", "M4"))
    assert not warnings and not p4_warnings
    report.rows += p4.rows
    return report.sort()


@pytest.fixture(scope="session")
def locking_report():
    report, warnings = run_locking()
    assert not warnings
    return report


@pytest.fixture(scope="session")
def gradrob_report():
    report, warnings = run_gradrob()
    assert not warnings
    return report


def series(report, method, metric, p=None, cs2=None):
    """(h, value) arrays of one curve of a study report, h descending."""
    rows = [r for r in report.rows
            if r.method == method and r.metric_name == metric
            and (p is None or r.p == p)
            and (cs2 is None or r.cs2 == cs2)]
    rows.sort(key=lambda r: -r.h)
    return (np.array([r.h for r in rows]),
            np.array([r.value for r in rows]))


def check_symmetry(M, tol=1e-12):
    """Maximum absolute skew |M - M^T|; raises if it exceeds tol * max|entry|."""
    skew = abs(M - M.T).max()
    scale = abs(M).max()
    if skew > tol * max(scale, 1.0):
        raise ValueError(f"matrix not symmetric: skew {skew:g}, scale {scale:g}")
    return float(skew)


def read_study_csv(path):
    """Parse a study CSV back into a StudyReport.

    The study kind is inferred from the header.  The field absent from the
    file (cs2 for convergence, p for locking/gradrob) is restored from the
    study defaults, so parse(emit(report)) reproduces the rows of a
    default run exactly.
    """
    with open(path, newline="\n") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    study = next((name for name, spec in STUDIES.items()
                  if _csv_header(spec) == header), None)
    if study is None:
        raise ValueError(f"{path}: not a study CSV header: {lines[0]!r}")
    spec = STUDIES[study]
    parse = int if spec.axis == "p" else float
    col_method = {v: k for k, v in spec.columns.items()}
    report = StudyReport(study)
    for ln in lines[1:]:
        cells = ln.split(",")
        at = {"p": spec.p_list[0], "cs2": spec.cs2_list[0],
              spec.axis: parse(cells[1])}
        for name, cell in zip(header[2:], cells[2:]):
            if cell:
                report.add(float(cells[0]), at["p"], at["cs2"],
                           col_method[name], name, float(cell))
    return report.sort()


# Finite-difference check of a manufactured problem: sample count, step of
# the first differences, step of the operator differences, sample seed.
FD_SAMPLES, FD_STEP, FD_OPERATOR_STEP, FD_SEED = 40, 1e-5, 1e-4, 4


def manufactured_defect(prob):
    """Finite-difference consistency of grad_u, div_u and f against u.

    Returns the worst relative defect found; raises AssertionError above
    the FD truncation floor.  0.0 for a problem without an exact solution.
    """
    if not prob.has_exact:
        return 0.0
    rng = np.random.default_rng(FD_SEED)
    r = 0.8 * np.sqrt(rng.uniform(0.01, 1.0, FD_SAMPLES))
    th = rng.uniform(0.0, 2.0 * np.pi, FD_SAMPLES)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    h = FD_STEP
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    gfd = np.stack([(prob.u(pts + h * ex) - prob.u(pts - h * ex)) / (2 * h),
                    (prob.u(pts + h * ey) - prob.u(pts - h * ey)) / (2 * h)],
                   axis=2)
    g = prob.grad_u(pts)
    scale = max(float(np.abs(g).max()), 1.0)
    worst = float(np.abs(g - gfd).max()) / scale
    dfd = gfd[:, 0, 0] + gfd[:, 1, 1]
    worst = max(worst, float(np.abs(prob.div_u(pts) - dfd).max()) / scale)
    ffd = _fd_operator(prob.u, prob.coeffs, pts, prob.div_u)
    fscale = max(float(np.abs(prob.f(pts)).max()), 1.0)
    worst = max(worst, float(np.abs(prob.f(pts) - ffd).max()) / fscale)
    if worst > 1e-4:
        raise AssertionError(f"manufactured forms inconsistent: {worst:g}")
    return worst


def _fd_operator(u, coeffs, pts, div_u):
    """(b.grad)^2 u - b_inf^2 u - grad(c^2 div u) by central differences.

    div_u (already FD-checked against u) replaces the inner difference
    quotient; this keeps the grad-div term to a single FD layer so large
    c_s^2 does not amplify truncation noise.
    """
    h = FD_OPERATOR_STEP
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])

    def conv(fun, q):
        b = coeffs.b_at(q)
        gx = (fun(q + h * ex) - fun(q - h * ex)) / (2 * h)
        gy = (fun(q + h * ey) - fun(q - h * ey)) / (2 * h)
        return b[:, :1] * gx + b[:, 1:] * gy

    def div(q):
        return coeffs.cs2 * div_u(q)

    graddiv = np.column_stack([(div(pts + h * ex) - div(pts - h * ex)) / (2 * h),
                               (div(pts + h * ey) - div(pts - h * ey)) / (2 * h)])
    return (conv(lambda q: conv(u, q), pts)
            - coeffs.b_inf ** 2 * u(pts) - graddiv)


# -- fields to test against ---------------------------------------------------

def gradient_potential(pts):
    """The potential of the gradient-forcing problem, phi = x^6 + y^6."""
    return pts[:, 0] ** 6 + pts[:, 1] ** 6


def bdm_interpolate(space, v, order=None):
    """Element-wise BDM interpolation of a smooth vector field.

    Matches facet moments of v.n against P^p on each facet and interior
    moments against the space's reference test fields w (none for p = 1),
    taken as int_K v . J^-T w dx, which equals int_ref v_ref . w dxi for
    the inverse Piola image v_ref of v.  `order` raises the quadrature
    order used for the moments of a non-polynomial v.
    """
    if space.family != "hdiv_bdm":
        raise ValueError("bdm_interpolate requires an hdiv_bdm space")
    p = space.degree
    mesh = space.mesh
    coeffs = np.zeros(space.ndof)

    srule = segment_rule(quadrature_order(space) if order is None else order)
    ts = srule.points[:, 0]
    leg = np.array([shifted_legendre(j, ts) for j in range(p + 1)])
    facets = np.arange(mesh.num_facets)
    fg = FacetGeometry(mesh, facets, ts)
    vn = np.einsum("fqc,fqc->fq", eval_pointwise(v, fg.points), fg.normals)
    moms = np.einsum("q,jq,fq->fj", srule.weights, leg, vn * fg.dline)
    coeffs[:mesh.num_facets * (p + 1)] = \
        (moms / mesh.facet_length(facets)[:, None]).ravel()

    if p >= 2:
        vrule = triangle_rule(quadrature_order(space) + 4 if order is None
                              else order)
        elems = np.arange(mesh.num_triangles)
        gm = mesh.geometry(elems)
        jac = gm.jacobian(vrule.points)
        wm = np.einsum("eqdc,qmd->eqmc", GeometryMap.inv(jac),
                       bdm_moment_fields(p, vrule.points))
        wq = vrule.weights * GeometryMap.dets(jac)
        moms = np.einsum("eq,eqd,eqmd->em", wq,
                         eval_pointwise(v, gm.points(vrule.points)), wm,
                         optimize=True)
        coeffs[mesh.num_facets * (p + 1):] = moms.ravel()
    return DiscreteField(space, coeffs)


def l2_project(space, f, order=None):
    """L2 projection of f onto the space: <u_h, q_h> = <f, q_h> for all q_h."""
    order = quadrature_order(space) if order is None else order
    rule, wq, phys = space.mesh.element_quadrature(order)
    elems = np.arange(space.mesh.num_triangles)
    bv, _, _ = space.eval_basis(elems, rule.points)
    fv = eval_pointwise(f, phys)
    if space.ncomp == 1:
        loc = np.einsum("eq,eqi,eqj->eij", wq, bv, bv, optimize=True)
        lrhs = np.einsum("eq,eq,eqj->ej", wq, fv, bv, optimize=True)
    else:
        loc = np.einsum("eq,eqic,eqjc->eij", wq, bv, bv, optimize=True)
        lrhs = np.einsum("eq,eqc,eqjc->ej", wq, fv, bv, optimize=True)
    dofs = space.dof_map
    A = assemble_csr(dofs, dofs, loc, (space.ndof, space.ndof))
    rhs = assemble_vector(dofs, lrhs, space.ndof)
    return DiscreteField(space, spla.spsolve(A.tocsc(), rhs))


def volume_matrix(space, form, *args, order=None):
    """The global matrix of a volume form of `forms` on all elements of
    the space, at quadrature_order(space) by default."""
    order = quadrature_order(space) if order is None else order
    return assemble_csr(space.dof_map, space.dof_map,
                        form(*args, space.volume(order)),
                        (space.ndof, space.ndof))


def load_vector(space, f, order=None):
    """The load <f, basis> of the space, at quadrature_order(space) by
    default."""
    order = quadrature_order(space) if order is None else order
    return assemble_vector(space.dof_map, forms.assemble_rhs(
        f, space.volume(order)), space.ndof)
