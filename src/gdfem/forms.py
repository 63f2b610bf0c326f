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

from .fespace import (DiscreteField, build_space, DegreeError,
                      eval_pointwise, quadrature_order)
from .linalg import LinearSystem, assemble_csr, assemble_vector
from .mesh import FacetGeometry

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


def _order(space, order):
    return quadrature_order(space) if order is None else order


def _all_elems(space):
    return np.arange(space.mesh.num_triangles)


def _volume(space, order, need_grad=True):
    """Weights * det, points and basis tables (eval_basis) of all elements."""
    rule, wdet, phys = space.mesh.element_quadrature(_order(space, order))
    return (wdet, phys) + space.eval_basis(_all_elems(space), rule.points,
                                           need_grad=need_grad)


def _matrix(space, loc):
    """Global square matrix of the local blocks loc (E, nloc, nloc)."""
    return assemble_csr(space.dof_map, space.dof_map, loc,
                        (space.ndof, space.ndof))


# -- volume forms -----------------------------------------------------------

def assemble_a_volume(space, coeffs, order=None):
    """Volume part of a_h: <rho (b.grad)u, (b.grad)u'> + |b|_inf^2 <rho u, u'>."""
    wdet, phys, vals, grads, _ = _volume(space, order)
    wq = wdet * coeffs.rho_at(phys)
    conv = np.einsum("eqjcd,eqd->eqjc", grads, coeffs.b_at(phys),
                     optimize=True)
    loc = np.einsum("eq,eqic,eqjc->eij", wq, conv, conv, optimize=True)
    loc += coeffs.b_inf ** 2 * np.einsum("eq,eqic,eqjc->eij", wq, vals, vals,
                                         optimize=True)
    return _matrix(space, loc)


def assemble_b_volume(space, coeffs, order=None):
    """Volume part of b_h: <rho c_s^2 div u, div u'>."""
    wdet, phys, _, _, div = _volume(space, order, need_grad=False)
    wq = wdet * coeffs.rho_at(phys) * coeffs.cs2_at(phys)
    return _matrix(space, np.einsum("eq,eqi,eqj->eij", wq, div, div,
                                    optimize=True))


def assemble_rhs(space, f, order=None):
    """Load vector <f, basis>."""
    wdet, phys, vals, _, _ = _volume(space, order, need_grad=False)
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
    order = _order(space, order)
    A = assemble_a_volume(space, coeffs, order=order)
    rule, fg = space.mesh.facet_quadrature(order, boundary=False)
    dofs, vals, grads, _, sgn = _facet_basis(space, fg)
    rho = coeffs.rho_at(fg.points)
    b = coeffs.b_at(fg.points)
    bn = np.einsum("fqc,fqc->fq", b, fg.normals)         # b . n+
    wq = rule.weights * fg.dline * rho
    # b-weighted jump of each combined basis fn: sign * (b.n+) * trace
    bjump = vals * (sgn * bn[..., None])[..., None]
    avg = 0.5 * np.einsum("fqjcd,fqd->fqjc", grads, b, optimize=True)
    pen = coeffs.lambda_b / fg.length
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
    order = _order(space, order)
    B = assemble_b_volume(space, coeffs, order=order)
    for boundary in ((False, True) if space.family == "vector_dg"
                     else (True,)):
        rule, fg = space.mesh.facet_quadrature(order, boundary)
        dofs, vals, _, divs, sgn = _facet_basis(space, fg, need_grad=False)
        wq = (rule.weights * fg.dline * coeffs.rho_at(fg.points)
              * coeffs.cs2_at(fg.points))
        njump = np.einsum("fqjc,fqc->fqj", vals, fg.normals,
                          optimize=True) * sgn
        davg = divs / len(fg.sides)
        pen = coeffs.lambda_n / fg.length
        loc = pen[:, None, None] * np.einsum("fq,fqi,fqj->fij",
                                             wq, njump, njump, optimize=True)
        cross = np.einsum("fq,fqi,fqj->fij", wq, davg, njump, optimize=True)
        loc -= cross + cross.transpose(0, 2, 1)
        B = B + assemble_csr(dofs, dofs, loc, B.shape)
    return B


# -- the pseudo-pressure block system ----------------------------------------

def _pressure_blocks(vel_space, pp_space, coeffs, order):
    """Volume blocks (D, M_p) of the pseudo-pressure system.

    D (npp, nu) couples div u to the pseudo-pressure basis and M_p is its
    mass matrix, both weighted by rho c_s^2.
    """
    wdet, phys, _, _, div = _volume(vel_space, order, need_grad=False)
    qv = _volume(pp_space, order, need_grad=False)[2]
    wq = wdet * coeffs.rho_at(phys) * coeffs.cs2_at(phys)
    D = assemble_csr(pp_space.dof_map, vel_space.dof_map,
                     np.einsum("eq,eqi,eqj->eij", wq, qv, div, optimize=True),
                     (pp_space.ndof, vel_space.ndof))
    return D, _matrix(pp_space, np.einsum("eq,eqi,eqj->eij", wq, qv, qv,
                                          optimize=True))


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
    order = _order(vel_space, order)
    nu, npp = vel_space.ndof, pp_space.ndof
    A = assemble_a_volume(vel_space, coeffs, order=order)
    D, Mp = _pressure_blocks(vel_space, pp_space, coeffs, order)

    # boundary terms
    rule, fg = vel_space.mesh.facet_quadrature(order, boundary=True)
    e, rp = fg.sides[0][0], fg.ref_points[0]
    uv, _, _ = vel_space.eval_basis(e, rp, need_grad=False)
    qv, _, _ = pp_space.eval_basis(e, rp, need_grad=False)
    wq = (rule.weights * fg.dline * coeffs.rho_at(fg.points)
          * coeffs.cs2_at(fg.points))
    un = np.einsum("fqjc,fqc->fqj", uv, fg.normals, optimize=True)
    pen = coeffs.lambda_n / fg.length
    udofs = vel_space.dof_map[e]
    N = assemble_csr(udofs, udofs, pen[:, None, None] * np.einsum(
        "fq,fqi,fqj->fij", wq, un, un, optimize=True), (nu, nu))
    G = assemble_csr(pp_space.dof_map[e], udofs, np.einsum(
        "fq,fqi,fqj->fij", wq, qv, un, optimize=True), (npp, nu))

    DG = D - G
    return (sp.block_diag([A, sp.csr_matrix((npp, npp))], format="csr"),
            sp.bmat([[N, DG.T], [DG, -Mp]], format="csr"))


# -- method dispatch ----------------------------------------------------------

# method -> (velocity family, pseudo-pressure family, a-form, b-form).
# Strong boundary constraints come with the space: only BDM pins dofs (its
# boundary normal moments).  A method with a pseudo-pressure family (M2)
# has its operator pair on (u_h, p_h) from assemble_m2_system; its forms
# are those of its triple norm, with div replaced by the weighted
# projection onto the pseudo-pressure space.  Forms are named rather than
# held, so a wrapper installed on this module's attribute (a profiler or
# tracer) sees every call.
METHOD_FORMS = {
    "M1": ("vector_lagrange", None, "assemble_a_volume", "assemble_b_dg"),
    "M2": ("vector_lagrange", "scalar_lagrange", "assemble_a_volume",
           "assemble_b_dg"),
    "M3": ("hdiv_bdm", None, "assemble_a_dg", "assemble_b_volume"),
    "M4": ("vector_dg", None, "assemble_a_dg", "assemble_b_dg"),
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
    vel_family, pp_family, _, _ = METHOD_FORMS[method]
    vel = build_space(vel_family, mesh, p)
    if pp_family is None:
        return vel, None
    if p < 2:
        raise DegreeError(f"{method} requires p >= 2")
    return vel, build_space(pp_family, mesh, p - 1)


def method_forms(method, space, coeffs, order=None, pp_space=None):
    """(A_h, B_h) of a method on its velocity space (and pp_space)."""
    _, pp_family, a_form, b_form = METHOD_FORMS[method]
    if pp_family is not None:
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

class _ErrorSpace:
    """The error e = u_h - u as a space spanned by one function.

    It has what the forms read of a space, with one dof on every element,
    and eval_basis returns the traces of e with a basis axis of length one,
    so assemble_X(err, coeffs, order=order)[0, 0] is form X at the error.
    `div`, when set to a scalar DiscreteField, replaces div e.  eval_basis
    takes only the point sets of the mesh's quadrature at `order`.  It
    evaluates u_h once per point set, and the exact solution once per set
    of physical points: both owners of an interior facet use owner 0's
    points, where the exact solution is continuous.
    """
    ndof = 1
    div = None

    def __init__(self, u_h, exact, order):
        space = u_h.space
        self.mesh, self.family = space.mesh, space.family
        self.degree, self.ncomp = space.degree, space.ncomp
        self.dof_map = np.zeros((self.mesh.num_triangles, 1), dtype=int)
        self.u_h, self.exact = u_h, exact
        rule, _, phys = self.mesh.element_quadrature(order)
        self._points = {id(rule.points): phys}
        for boundary in (False, True):
            _, fg = self.mesh.facet_quadrature(order, boundary)
            self._points.update((id(rp), fg.points) for rp in fg.ref_points)
        self._traces = {}   # id(reference points) -> (u_h values, e traces)
        self._exact = {}    # id(physical points) -> u, grad u, div u

    def traces(self, elems, ref_pts, need_grad=True):
        """(u_h values, (values, gradients, divergences) of e)."""
        hit = self._traces.get(id(ref_pts))
        if hit is None or (need_grad and hit[1][1] is None):
            pts = self._points[id(ref_pts)]
            if id(pts) not in self._exact:
                self._exact[id(pts)] = [eval_pointwise(f, pts) for f in (
                    self.exact.u, self.exact.grad_u, self.exact.div_u)]
            u, grad_u, div_u = self._exact[id(pts)]
            vals, grads, div = self.u_h.evaluate(elems, ref_pts, need_grad)
            hit = self._traces[id(ref_pts)] = (vals, (
                vals - u, None if grads is None else grads - grad_u,
                div - div_u))
        return hit

    def eval_basis(self, elems, ref_pts, need_grad=True):
        vals, grads, div = self.traces(elems, ref_pts, need_grad)[1]
        if self.div is not None:
            div = self.div.evaluate(elems, ref_pts, need_grad=False)[0]
        return (vals[..., None, :],
                None if grads is None else grads[..., None, :, :],
                div[..., None])


def _l2(wq, vals):
    return float(np.sqrt(np.sum(wq * np.einsum("...c,...c->...", vals,
                                               vals))))


def error_norms(u_h, exact, coeffs, method="M3", pp_space=None, order=None):
    """L2 error, method triple-norm error, and L2 norm of a discrete solution.

    The triple norm of the error e = u_h - u is a_h(e, e) + b_h(e, e) of
    the method's METHOD_FORMS forms; for a method with a pseudo-pressure
    family, div e is replaced by its rho c_s^2 weighted projection onto
    that space (pp_space, built when not given).  `exact` provides
    callables u, grad_u, div_u (or is None, in which case only the solution
    norm is reported).
    """
    space = u_h.space
    order = quadrature_order(space) + 2 if order is None else order
    rule, wq, _ = space.mesh.element_quadrature(order)
    elems = _all_elems(space)
    if exact is None:
        vals, _, _ = u_h.evaluate(elems, rule.points, need_grad=False)
        return {"l2_error": None, "xh_error": None, "l2_norm": _l2(wq, vals)}

    err = _ErrorSpace(u_h, exact, order)
    vals, (ev, _, _) = err.traces(elems, rule.points)
    _, pp_family, a_form, b_form = METHOD_FORMS[method]
    forms = globals()
    xh2 = forms[a_form](err, coeffs, order=order)[0, 0]
    if pp_family is not None:
        if pp_space is None:
            pp_space = build_space(pp_family, space.mesh, space.degree - 1)
        # rho c_s^2 weighted projection of div e (D is its load vector)
        D, Mp = _pressure_blocks(err, pp_space, coeffs, order)
        err.div = DiscreteField(pp_space,
                                spla.spsolve(Mp.tocsc(), D.toarray()[:, 0]))
    xh2 += forms[b_form](err, coeffs, order=order)[0, 0]
    return {"l2_error": _l2(wq, ev),
            "xh_error": float(np.sqrt(max(xh2, 0.0))),
            "l2_norm": _l2(wq, vals)}
