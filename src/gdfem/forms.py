"""Assembly of the volume, interior-penalty and Nitsche bilinear forms.

The discrete operator of every method is -a_h + b_h:

* a_h: streamline term rho (b.grad u).(b.grad u') plus the zeroth-order
  term |b|_inf^2 rho u.u'; the DG variant adds symmetric interior-penalty
  terms in the b-weighted jump (interior facets only -- b.n = 0 on the
  boundary kills the boundary contribution exactly).
* b_h: grad-div term rho c_s^2 div u div u'; the DG variant adds interior
  penalty and boundary Nitsche terms in the normal jump.  The
  pseudo-pressure variant (M2) replaces div by its weighted L2 projection,
  realized as a symmetric saddle-point block system.

Every form is evaluated on all elements (or all facets of one kind) at
once: geometry and basis tables carry a leading element or facet axis,
each local matrix is one einsum, and the global matrix one COO -> CSR sum.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import DiscreteField, build_space, DegreeError, eval_pointwise
from .linalg import LinearSystem, assemble_csr, assemble_vector
from .mesh import FacetGeometry, element_quadrature
from .quadrature import segment_rule

METHODS = ("M1", "M2", "M3", "M4")

def _field(val, vector=False):
    """Normalize a constant or callable coefficient to callable(pts)->array."""
    if callable(val):
        return val
    if vector:
        v = np.asarray(val, dtype=float)
        return lambda pts: np.broadcast_to(v, (len(pts), 2))
    return lambda pts: np.full(len(pts), float(val))


@dataclass
class CoefficientSet:
    """Density, sound speed, background flow and penalty parameters."""
    rho: object = 1.0
    c_s: object = 1.0
    b_flow: object = (0.0, 0.0)
    b_inf: float = 0.1
    lambda_b: float = 0.0
    lambda_n: float = 0.0

    def __post_init__(self):
        if not self.b_inf > 0.0:
            raise ValueError("b_inf must be positive (the zeroth-order term "
                             "degenerates otherwise)")
        if self.lambda_b < 0 or self.lambda_n < 0:
            raise ValueError("penalty parameters must be nonnegative")
        self._rho = _field(self.rho)
        self._cs = _field(self.c_s)
        self._b = _field(self.b_flow, vector=True)

    # The *_at methods take points of shape (..., 2) and keep the leading axes.

    def rho_at(self, pts):
        r = eval_pointwise(self._rho, pts)
        if not np.all(r > 0):
            raise ValueError("rho must be positive")
        return r

    def cs2_at(self, pts):
        c = eval_pointwise(self._cs, pts)
        if not np.all(c > 0):
            raise ValueError("c_s must be positive")
        return c * c

    def b_at(self, pts):
        return eval_pointwise(self._b, pts)

    def boundary_flow_defect(self, mesh, n_samples=7):
        """max |b.n| over boundary quadrature points (compatibility check)."""
        ts = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
        fg = FacetGeometry(mesh, np.nonzero(mesh.facet_boundary)[0], ts)
        bn = np.einsum("fqc,fqc->fq", self.b_at(fg.points), fg.normals)
        return float(np.abs(bn).max(initial=0.0))


def rotational_flow(amplitude=0.1):
    """b = amplitude * (-y, x); |b|_inf = amplitude on the unit disc."""
    return lambda pts: amplitude * np.column_stack([-pts[:, 1], pts[:, 0]])


def paper_coefficients(p, cs2=1.0, lambda_b=None, lambda_n=None,
                       b_scale=1.0):
    """The paper's coefficients at degree p and squared sound speed cs2.

    rho = 1, c_s = sqrt(cs2), b = 0.1 b_scale (-y, x) with |b|_inf = 0.1
    b_scale on the unit disc; default penalties lambda_b = 10 p^2 and
    lambda_n = 100 p^2.  Raises ValueError unless cs2 > 0 (NaN included).
    """
    if not cs2 > 0:
        raise ValueError(f"cs2 must be positive, got {cs2!r}")
    return CoefficientSet(
        rho=1.0, c_s=np.sqrt(cs2), b_flow=rotational_flow(0.1 * b_scale),
        b_inf=0.1 * b_scale,
        lambda_b=10.0 * p * p if lambda_b is None else lambda_b,
        lambda_n=100.0 * p * p if lambda_n is None else lambda_n)


def _default_order(space):
    return 2 * space.degree + 2 * (space.mesh.geom_order - 1) + 2


def _all_elems(space):
    return np.arange(space.mesh.num_triangles)


def _matrix(space, loc):
    """Global square matrix of the local blocks loc (E, nloc, nloc)."""
    return assemble_csr(space.dof_map, space.dof_map, loc,
                        (space.ndof, space.ndof))


# -- volume forms -----------------------------------------------------------

def assemble_a_volume(space, coeffs, order=None):
    """Volume part of a_h: <rho (b.grad)u, (b.grad)u'> + |b|_inf^2 <rho u, u'>."""
    order = _default_order(space) if order is None else order
    rule, wdet, phys = element_quadrature(space.mesh, order)
    vals, grads, _ = space.eval_basis(_all_elems(space), rule.points)
    wq = wdet * coeffs.rho_at(phys)
    conv = np.einsum("eqjcd,eqd->eqjc", grads, coeffs.b_at(phys),
                     optimize=True)
    loc = np.einsum("eq,eqic,eqjc->eij", wq, conv, conv, optimize=True)
    loc += coeffs.b_inf ** 2 * np.einsum("eq,eqic,eqjc->eij", wq, vals, vals,
                                         optimize=True)
    return _matrix(space, loc)


def assemble_b_volume(space, coeffs, order=None):
    """Volume part of b_h: <rho c_s^2 div u, div u'>."""
    order = _default_order(space) if order is None else order
    rule, wdet, phys = element_quadrature(space.mesh, order)
    _, _, div = space.eval_basis(_all_elems(space), rule.points,
                                 need_grad=False)
    wq = wdet * coeffs.rho_at(phys) * coeffs.cs2_at(phys)
    return _matrix(space, np.einsum("eq,eqi,eqj->eij", wq, div, div,
                                    optimize=True))


def assemble_rhs(space, f, order=None):
    """Load vector <f, basis>."""
    order = _default_order(space) if order is None else order
    rule, wdet, phys = element_quadrature(space.mesh, order)
    vals, _, _ = space.eval_basis(_all_elems(space), rule.points,
                                  need_grad=False)
    fv = eval_pointwise(_field(f, vector=(space.ncomp == 2)), phys)
    spec = "eq,eqc,eqjc->ej" if space.ncomp == 2 else "eq,eq,eqj->ej"
    loc = np.einsum(spec, wdet, fv, vals, optimize=True)
    return assemble_vector(space.dof_map, loc, space.ndof)


# -- facet forms ------------------------------------------------------------

def _facet_basis(space, fg, need_grad=True):
    """Basis traces of every owner of a facet batch, owners side by side.

    Returns (dofs (F, ns nloc), values, gradients, divergences, signs)
    with the owners concatenated along the basis axis; the sign of a basis
    function is +1 on owner 0 and -1 on owner 1.
    """
    traces = [space.eval_basis(e, rp, need_grad=need_grad)
              for (e, _, _), rp in zip(fg.sides, fg.ref_points)]
    dofs = np.concatenate([space.dof_map[e] for e, _, _ in fg.sides], axis=1)
    vals, grads, divs = (None if part[0] is None
                         else np.concatenate(part, axis=2)
                         for part in zip(*traces))
    sgn = np.repeat([1.0, -1.0][:len(traces)], space.dof_map.shape[1])
    return dofs, vals, grads, divs, sgn


def assemble_a_dg(space, coeffs, order=None):
    """a_h^DG: volume terms plus interior-facet interior-penalty terms.

    Boundary facets contribute nothing since b.n = 0 there by assumption.
    """
    A = assemble_a_volume(space, coeffs, order=order)
    order = _default_order(space) if order is None else order
    srule = segment_rule(order)
    mesh = space.mesh
    interior = np.nonzero(~mesh.facet_boundary)[0]
    fg = FacetGeometry(mesh, interior, srule.points[:, 0])
    dofs, vals, grads, _, sgn = _facet_basis(space, fg)
    rho = coeffs.rho_at(fg.points)
    b = coeffs.b_at(fg.points)
    bn = np.einsum("fqc,fqc->fq", b, fg.normals)         # b . n+
    wq = srule.weights * fg.dline * rho
    # b-weighted jump of each combined basis fn: sign * (b.n+) * trace
    bjump = vals * (sgn * bn[..., None])[..., None]
    avg = 0.5 * np.einsum("fqjcd,fqd->fqjc", grads, b, optimize=True)
    pen = coeffs.lambda_b / mesh.facet_length(interior)
    loc = pen[:, None, None] * np.einsum("fq,fqic,fqjc->fij",
                                         wq, bjump, bjump, optimize=True)
    cross = np.einsum("fq,fqic,fqjc->fij", wq, avg, bjump, optimize=True)
    loc -= cross + cross.transpose(0, 2, 1)
    return A + assemble_csr(dofs, dofs, loc, A.shape)


def assemble_b_dg(space, coeffs, order=None):
    """b_h^DG: volume terms plus normal-jump penalty/consistency terms.

    Boundary facets get the Nitsche terms enforcing u.n = 0 with the
    one-sided trace convention.  Interior facets get the interior-penalty
    terms on the discontinuous family only: the normal jump of a continuous
    space vanishes, and assembling its terms would store round-off entries.
    """
    B = assemble_b_volume(space, coeffs, order=order)
    order = _default_order(space) if order is None else order
    srule = segment_rule(order)
    mesh = space.mesh
    groups = [np.nonzero(mesh.facet_boundary)[0]]
    if space.family == "vector_dg":
        groups.insert(0, np.nonzero(~mesh.facet_boundary)[0])
    for facets in groups:
        fg = FacetGeometry(mesh, facets, srule.points[:, 0])
        dofs, vals, _, divs, sgn = _facet_basis(space, fg, need_grad=False)
        wq = (srule.weights * fg.dline * coeffs.rho_at(fg.points)
              * coeffs.cs2_at(fg.points))
        njump = np.einsum("fqjc,fqc->fqj", vals, fg.normals,
                          optimize=True) * sgn
        davg = divs / len(fg.sides)
        pen = coeffs.lambda_n / mesh.facet_length(facets)
        loc = pen[:, None, None] * np.einsum("fq,fqi,fqj->fij",
                                             wq, njump, njump, optimize=True)
        cross = np.einsum("fq,fqi,fqj->fij", wq, davg, njump, optimize=True)
        loc -= cross + cross.transpose(0, 2, 1)
        B = B + assemble_csr(dofs, dofs, loc, B.shape)
    return B


# -- the pseudo-pressure block system ----------------------------------------

def assemble_m2_system(vel_space, pp_space, coeffs, order=None):
    """Operator pair (A_h, B_h) of the pseudo-pressure formulation.

    Unknowns (u_h, p_h).  A_h = blockdiag(a_h, 0) and
    B_h = [[N, (D - G)^T], [D - G, -M_p]] with N the boundary normal
    penalty, D and G the volume and boundary couplings of u_h to p_h and M_p
    the pseudo-pressure mass matrix, all weighted by rho c_s^2.  -A_h + B_h
    is symmetric indefinite; eliminating p_h reproduces -a + b^pp with the
    rho c_s^2 weighted L2 projection of the divergence.
    """
    if vel_space.degree < 2:
        raise DegreeError("pseudo-pressure formulation requires p >= 2")
    if pp_space.degree != vel_space.degree - 1:
        raise DegreeError("pseudo-pressure degree must be p - 1")
    order = _default_order(vel_space) if order is None else order
    mesh = vel_space.mesh
    nu, npp = vel_space.ndof, pp_space.ndof
    A = assemble_a_volume(vel_space, coeffs, order=order)

    # volume couplings
    rule, wdet, phys = element_quadrature(mesh, order)
    wq = wdet * coeffs.rho_at(phys) * coeffs.cs2_at(phys)
    _, _, div = vel_space.eval_basis(_all_elems(vel_space), rule.points,
                                     need_grad=False)
    qv, _, _ = pp_space.eval_basis(_all_elems(pp_space), rule.points,
                                   need_grad=False)
    D = assemble_csr(pp_space.dof_map, vel_space.dof_map,
                     np.einsum("eq,eqi,eqj->eij", wq, qv, div, optimize=True),
                     (npp, nu))
    Mp = _matrix(pp_space, np.einsum("eq,eqi,eqj->eij", wq, qv, qv,
                                     optimize=True))

    # boundary terms
    srule = segment_rule(order)
    bnd = np.nonzero(mesh.facet_boundary)[0]
    fg = FacetGeometry(mesh, bnd, srule.points[:, 0])
    e, rp = fg.sides[0][0], fg.ref_points[0]
    uv, _, _ = vel_space.eval_basis(e, rp, need_grad=False)
    qv, _, _ = pp_space.eval_basis(e, rp, need_grad=False)
    wq = (srule.weights * fg.dline * coeffs.rho_at(fg.points)
          * coeffs.cs2_at(fg.points))
    un = np.einsum("fqjc,fqc->fqj", uv, fg.normals, optimize=True)
    pen = coeffs.lambda_n / mesh.facet_length(bnd)
    udofs = vel_space.dof_map[e]
    N = assemble_csr(udofs, udofs, pen[:, None, None] * np.einsum(
        "fq,fqi,fqj->fij", wq, un, un, optimize=True), (nu, nu))
    G = assemble_csr(pp_space.dof_map[e], udofs, np.einsum(
        "fq,fqi,fqj->fij", wq, qv, un, optimize=True), (npp, nu))

    DG = D - G
    return (sp.block_diag([A, sp.csr_matrix((npp, npp))], format="csr"),
            sp.bmat([[N, DG.T], [DG, -Mp]], format="csr"))


# -- method dispatch ----------------------------------------------------------

# method -> (velocity family, a-form, b-form).  Strong boundary constraints
# come with the space: only BDM pins dofs (its boundary normal moments).
# M2 has no single-field forms: its pair acts on (u_h, p_h) and comes from
# assemble_m2_system.  Forms are named rather than held, so a wrapper
# installed on this module's attribute (a profiler or tracer) sees every
# call.
METHOD_FORMS = {
    "M1": ("vector_lagrange", "assemble_a_volume", "assemble_b_dg"),
    "M2": ("vector_lagrange", None, None),
    "M3": ("hdiv_bdm", "assemble_a_dg", "assemble_b_volume"),
    "M4": ("vector_dg", "assemble_a_dg", "assemble_b_dg"),
}


@dataclass
class MethodSystem:
    """Operator pair (A_h, B_h) of one method on one mesh, and its forcing.

    The discrete operator is -A_h + B_h.  Every term of B_h is linear in
    rho c_s^2, so with constant rho and c_s a pair assembled at c_s = 1
    gives the operator at any c_s^2 through `system_at`.
    """
    method: str
    velocity_space: object
    pressure_space: object      # M2's pseudo-pressure space, else None
    a: object                   # A_h, CSR
    b: object                   # B_h, CSR
    f: object                   # the forcing of `system`
    order: int = None
    _load: tuple = field(default=(None, None), init=False, repr=False)

    def system_at(self, cs2, f):
        """(-A_h + cs2 B_h) x = load of f, zero on pseudo-pressure rows.

        The load of the last f is kept, read-only, and shared by the
        systems built from it, so a c_s^2 sweep with one forcing function
        assembles it once.
        """
        if self._load[0] is not f:
            rhs = assemble_rhs(self.velocity_space, f, order=self.order)
            rhs = np.concatenate([rhs, np.zeros(self.a.shape[0] - len(rhs))])
            rhs.setflags(write=False)
            self._load = (f, rhs)
        return LinearSystem(cs2 * self.b - self.a, self._load[1],
                            self.velocity_space.constrained_dofs)

    @cached_property
    def system(self):
        """The system at the coefficients and forcing assembled with."""
        return self.system_at(1.0, self.f)

    def velocity(self, x):
        """The velocity DiscreteField of a raw solution vector."""
        return DiscreteField(self.velocity_space,
                             x[:self.velocity_space.ndof])

    def split(self, x):
        """DiscreteField(s) from a raw solution vector."""
        u = self.velocity(x)
        if self.pressure_space is None:
            return u
        return u, DiscreteField(self.pressure_space,
                                x[self.velocity_space.ndof:])


def method_spaces(method, mesh, p):
    if method not in METHOD_FORMS:
        raise ValueError(f"unknown method {method!r}")
    vel = build_space(METHOD_FORMS[method][0], mesh, p)
    if method != "M2":
        return vel, None
    if p < 2:
        raise DegreeError("M2 requires p >= 2")
    return vel, build_space("scalar_lagrange", mesh, p - 1)


def method_forms(method, space, coeffs, order=None, pp_space=None):
    """(A_h, B_h) of a method on its velocity space (and M2's pp_space)."""
    _, a_form, b_form = METHOD_FORMS[method]
    if b_form is None:
        if pp_space is None:
            raise ValueError(f"{method} has no single-field forms: its pair "
                             "needs the pseudo-pressure space")
        return assemble_m2_system(space, pp_space, coeffs, order=order)
    forms = globals()
    return (forms[a_form](space, coeffs, order=order),
            forms[b_form](space, coeffs, order=order))


def assemble_method(method, mesh, p, coeffs, f, order=None):
    """Assemble the operator pair of one method; -A_h + B_h is its operator."""
    vel, pp = method_spaces(method, mesh, p)
    A, B = method_forms(method, vel, coeffs, order=order, pp_space=pp)
    return MethodSystem(method, vel, pp, A, B, f, order)


# -- error norms ---------------------------------------------------------------

def _project_div_error(pp_space, coeffs, u_h, exact, order):
    """rho c_s^2 weighted projection of div(u_h - u) onto the pp space."""
    rule, wdet, phys = element_quadrature(pp_space.mesh, order)
    elems = _all_elems(pp_space)
    wq = wdet * coeffs.rho_at(phys) * coeffs.cs2_at(phys)
    qv, _, _ = pp_space.eval_basis(elems, rule.points, need_grad=False)
    _, _, div = u_h.evaluate(elems, rule.points, need_grad=False)
    ediv = div - eval_pointwise(exact.div_u, phys)
    M = _matrix(pp_space, np.einsum("eq,eqi,eqj->eij", wq, qv, qv,
                                    optimize=True))
    rhs = assemble_vector(pp_space.dof_map, np.einsum(
        "eq,eq,eqj->ej", wq, ediv, qv, optimize=True), pp_space.ndof)
    return DiscreteField(pp_space, spla.spsolve(M.tocsc(), rhs))


def _dot(u, v):
    return np.einsum("...c,...c->...", u, v)


def error_norms(u_h, exact, coeffs, method="M3", pp_space=None, order=None):
    """L2 error, method triple-norm error, and L2 norm of a discrete solution.

    `exact` provides callables u, grad_u, div_u (or is None, in which case
    only the solution norm is reported).
    """
    space = u_h.space
    mesh = space.mesh
    if order is None:
        order = _default_order(space) + 2
    rule, wq, phys = element_quadrature(mesh, order)
    elems = _all_elems(space)

    pdiv = None
    if method == "M2" and exact is not None:
        if pp_space is None:
            pp_space = build_space("scalar_lagrange", mesh, space.degree - 1)
        pdiv = _project_div_error(pp_space, coeffs, u_h, exact, order)

    vals, grads, div = u_h.evaluate(elems, rule.points)
    rho = coeffs.rho_at(phys)
    cs2 = coeffs.cs2_at(phys)
    b = coeffs.b_at(phys)
    l2_norm = float(np.sqrt(np.sum(wq * _dot(vals, vals))))
    if exact is None:
        return {"l2_error": None, "xh_error": None, "l2_norm": l2_norm}

    ev = vals - eval_pointwise(exact.u, phys)
    eg = grads - eval_pointwise(exact.grad_u, phys)
    l2_err2 = np.sum(wq * _dot(ev, ev))
    conv = np.einsum("eqcd,eqd->eqc", eg, b, optimize=True)
    xh2 = np.sum((wq * rho) * (_dot(conv, conv)
                               + coeffs.b_inf ** 2 * _dot(ev, ev)))
    if method == "M2":
        dv, _, _ = pdiv.evaluate(elems, rule.points, need_grad=False)
    else:
        dv = div - eval_pointwise(exact.div_u, phys)
    xh2 += np.sum((wq * rho * cs2) * (dv * dv))
    xh2 += _facet_error_terms(u_h, exact, coeffs, method, order, pdiv)
    return {"l2_error": float(np.sqrt(l2_err2)),
            "xh_error": float(np.sqrt(max(xh2, 0.0))),
            "l2_norm": l2_norm}


def _facet_error_terms(u_h, exact, coeffs, method, order, pdiv):
    """Facet contributions of the method's triple norm applied to the error."""
    mesh = u_h.space.mesh
    srule = segment_rule(order)
    ts = srule.points[:, 0]
    a_interior = method in ("M3", "M4")
    b_interior = method == "M4"
    acc = 0.0
    if method in ("M1", "M2", "M4"):
        bnd = np.nonzero(mesh.facet_boundary)[0]
        fg = FacetGeometry(mesh, bnd, ts)
        e, rp = fg.sides[0][0], fg.ref_points[0]
        v, _, d = u_h.evaluate(e, rp, need_grad=False)
        un = _dot(v - eval_pointwise(exact.u, fg.points), fg.normals)
        if method == "M2":
            dv, _, _ = pdiv.evaluate(e, rp, need_grad=False)
        else:
            dv = d - eval_pointwise(exact.div_u, fg.points)
        w = (srule.weights * fg.dline * coeffs.rho_at(fg.points)
             * coeffs.cs2_at(fg.points))
        pen = coeffs.lambda_n / mesh.facet_length(bnd)
        acc += np.sum(w * (pen[:, None] * un * un - 2.0 * dv * un))
    if not (a_interior or b_interior):
        return acc
    # interior facets: the exact solution is continuous, jumps see u_h only
    interior = np.nonzero(~mesh.facet_boundary)[0]
    fg = FacetGeometry(mesh, interior, ts)
    hF = mesh.facet_length(interior)[:, None]
    w = srule.weights * fg.dline * coeffs.rho_at(fg.points)
    (v0, g0, d0), (v1, g1, d1) = (
        u_h.evaluate(e, rp, need_grad=a_interior)
        for (e, _, _), rp in zip(fg.sides, fg.ref_points))
    vjump = v0 - v1
    if a_interior:
        b = coeffs.b_at(fg.points)
        bj = vjump * _dot(b, fg.normals)[..., None]
        egrad = 0.5 * (g0 + g1) - eval_pointwise(exact.grad_u, fg.points)
        cavg = np.einsum("fqcd,fqd->fqc", egrad, b)
        acc += np.sum(w * ((coeffs.lambda_b / hF) * _dot(bj, bj)
                           - 2.0 * _dot(cavg, bj)))
    if b_interior:
        nj = _dot(vjump, fg.normals)
        davg = 0.5 * (d0 + d1) - eval_pointwise(exact.div_u, fg.points)
        acc += np.sum((w * coeffs.cs2_at(fg.points))
                      * ((coeffs.lambda_n / hF) * nj * nj - 2.0 * davg * nj))
    return acc
