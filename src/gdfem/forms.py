"""Assembly of the volume, interior-penalty and Nitsche bilinear forms.

The background flow is the rotational flow b = b_inf (-y, x), tangential
to the unit circle (b.n = 0 on the disc's boundary for every amplitude),
and rho = 1: a constant rho only rescales the forcing, f/rho.  The
discrete operator of every method is -a_h + b_h:

* a_h: streamline term (b.grad u).(b.grad u') plus the zeroth-order term
  |b|_inf^2 u.u'; the DG variant adds symmetric interior-penalty terms in
  the b-weighted jump (interior facets only -- b.n = 0 on the boundary
  kills the boundary contribution exactly).
* b_h: grad-div term c_s^2 div u div u'; the DG variant adds interior
  penalty and boundary Nitsche terms in the normal jump.  The
  pseudo-pressure variant (M2) replaces div by its L2 projection,
  realized as a symmetric saddle-point block system.

c_s^2 is a constant, so every b_h form assembles B_h per unit c_s^2, and
only MethodSystem applies c_s^2: -A_h + c_s^2 B_h.  One pair and the one
load assembled with it serve every c_s^2 of a sweep.  Each c_s^2, whether
it enters through CoefficientSet or MethodSystem.system_at, passes the one
rule, check_number.

_assemble is the one code path that composes a method's pair of forms,
for the operator, the dense diagnostics and the triple-norm error alike.
It walks the elements, and the facets of each set, in chunks of at most
CHUNK items, and asks the space it walks, an FeSpace or the error space,
for each chunk's tables (its volume and facet_basis): geometry and basis
tables carry a leading element or facet axis over one chunk, and each
chunk's local matrices are one einsum.  The forms only read the tables
they are handed and return local matrices; each form's local matrices of
all chunks of a point set are summed by one COO -> CSR conversion, so a
matrix does not depend on the chunk size, bit for bit.  On a space of a
Piola family (M3, M4) on the hexagon fan, the walk visits sector 0's
elements and one facet of each orbit of six and turns their local blocks
onto the other five sectors by the rotation R: that matches the walk
over every element and facet to round-off, not bit for bit.
"""

from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import (PIOLA_FAMILIES, DiscreteField, build_space,
                      DegreeError, eval_pointwise, quadrature_order,
                      side_by_side)
from .linalg import LinearSystem, assemble_csr, assemble_vector
from .mesh import FAN_ROTATION
from .quadrature import check_integer

METHODS = ("M1", "M2", "M3", "M4")


def check_number(name, value, kind):
    """float(value) for a real number that is finite and `kind`, "positive"
    or "nonnegative"; anything else, a string, None or a bool included,
    raises ValueError naming `name`."""
    number = (float(value) if isinstance(value, Real)
              and not isinstance(value, bool) else np.nan)
    if not 0.0 <= number < np.inf or kind == "positive" and number == 0.0:
        raise ValueError(f"{name} must be a {kind}, finite number, "
                         f"got {value!r}")
    return number


@dataclass
class CoefficientSet:
    """Squared sound speed, flow amplitude and penalty parameters.

    The flow is b = b_inf (-y, x), so |b|_inf = b_inf on the unit disc,
    and rho = 1: a constant rho is the problem with forcing f/rho.  cs2
    and b_inf must be positive, finite numbers and the penalties
    lambda_b and lambda_n finite and >= 0; anything else, a string or a
    callable included, raises ValueError naming the field.
    """
    cs2: float = 1.0
    b_inf: float = 0.1
    lambda_b: float = 0.0
    lambda_n: float = 0.0

    def __post_init__(self):
        for name, kind in (("cs2", "positive"), ("b_inf", "positive"),
                           ("lambda_b", "nonnegative"),
                           ("lambda_n", "nonnegative")):
            setattr(self, name, check_number(name, getattr(self, name), kind))

    @property
    def c_s(self):
        """The sound speed, sqrt(cs2)."""
        return float(np.sqrt(self.cs2))

    def b_at(self, pts):
        """b = b_inf (-y, x) at points of shape (..., 2), leading axes kept."""
        return self.b_inf * np.stack([-pts[..., 1], pts[..., 0]], axis=-1)


def paper_coefficients(p, cs2=1.0, lambda_b=None, lambda_n=None,
                       b_scale=1.0):
    """The paper's coefficients at degree p and squared sound speed cs2.

    rho = 1, c_s^2 = cs2, b = 0.1 b_scale (-y, x) with |b|_inf = 0.1
    b_scale on the unit disc; default penalties lambda_b = 10 p^2 and
    lambda_n = 100 p^2.  Raises DegreeError unless p is an integer >= 1
    and ValueError unless 0 < cs2 < inf (NaN included).
    """
    p = check_integer("degree", p, 1, DegreeError)
    return CoefficientSet(
        cs2=cs2, b_inf=0.1 * b_scale,
        lambda_b=10.0 * p * p if lambda_b is None else lambda_b,
        lambda_n=100.0 * p * p if lambda_n is None else lambda_n)


# Elements and facets are assembled in chunks of at most CHUNK.  Every disc
# mesh up to level 3 (384 elements, 552 interior facets) is one chunk; at
# level 4, p=2 the chunked tables cut the assembly peak of M3 and M4 to
# about a third of the unchunked one.
CHUNK = 600


def _chunks(n):
    """Slices of at most CHUNK consecutive items covering range(n)."""
    return [slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]


# -- volume forms -----------------------------------------------------------

# The volume forms read `tables`, the space's volume of a chunk of elements
# (a_h reads its gradients), and return that chunk's local blocks
# (E, nloc, nloc), or the load's local vectors (E, nloc).

def assemble_a_volume(coeffs, tables):
    """Volume part of a_h: <(b.grad)u, (b.grad)u'> + |b|_inf^2 <u, u'>."""
    wdet, phys, vals, grads, _ = tables
    conv = np.einsum("eqjcd,eqd->eqjc", grads, coeffs.b_at(phys),
                     optimize=True)
    loc = np.einsum("eq,eqic,eqjc->eij", wdet, conv, conv, optimize=True)
    loc += coeffs.b_inf ** 2 * np.einsum("eq,eqic,eqjc->eij", wdet, vals,
                                         vals, optimize=True)
    return loc


def assemble_b_volume(tables):
    """Volume part of b_h per unit c_s^2: <div u, div u'>."""
    wdet, _, _, _, div = tables
    return np.einsum("eq,eqi,eqj->eij", wdet, div, div, optimize=True)


def assemble_rhs(fvals, tables):
    """Load <f, basis> on a vector space from f's values fvals (..., E, q,
    2) at the tables' points; a leading axis of fvals stays on the load."""
    wdet, _, vals, _, _ = tables
    return np.einsum("eq,...eqc,eqjc->...ej", wdet, fvals, vals,
                     optimize=True)


# -- facet terms --------------------------------------------------------------

# The facet forms take one facet set's segment rule, a chunk fg of its
# FacetGeometry and that chunk's traces (the space's facet_basis: values,
# gradients, divergences and signs, owners side by side) and return the
# chunk's local blocks (F, ns nloc, ns nloc) on the owners' dofs, side by
# side (Rotation.owners).

def assemble_a_dg(coeffs, rule, fg, traces):
    """Interior-penalty terms of a_h^DG in the b-weighted jump.

    Only interior facets have them: boundary facets contribute nothing
    since b.n = 0 there by assumption.
    """
    vals, grads, _, sgn = traces
    b = coeffs.b_at(fg.points)
    bn = np.einsum("fqc,fqc->fq", b, fg.normals)         # b . n+
    wq = rule.weights * fg.dline
    # b-weighted jump of each combined basis fn: sign * (b.n+) * trace
    bjump = vals * (sgn * bn[..., None])[..., None]
    avg = 0.5 * np.einsum("fqjcd,fqd->fqjc", grads, b, optimize=True)
    pen = coeffs.lambda_b / fg.length
    loc = pen[:, None, None] * np.einsum("fq,fqic,fqjc->fij",
                                         wq, bjump, bjump, optimize=True)
    cross = np.einsum("fq,fqic,fqjc->fij", wq, avg, bjump, optimize=True)
    loc -= cross + cross.transpose(0, 2, 1)
    return loc


def assemble_b_dg(coeffs, rule, fg, traces):
    """Normal-jump penalty and consistency terms of b_h^DG per unit c_s^2.

    On the boundary facets they are the Nitsche terms enforcing u.n = 0
    with the one-sided trace convention; on the interior facets the
    interior-penalty terms, which only a discontinuous family has: the
    normal jump of a continuous space vanishes, and assembling its terms
    would store round-off entries.
    """
    vals, _, divs, sgn = traces
    wq = rule.weights * fg.dline
    njump = np.einsum("fqjc,fqc->fqj", vals, fg.normals, optimize=True) * sgn
    davg = divs / len(fg.sides)
    pen = coeffs.lambda_n / fg.length
    loc = pen[:, None, None] * np.einsum("fq,fqi,fqj->fij",
                                         wq, njump, njump, optimize=True)
    cross = np.einsum("fq,fqi,fqj->fij", wq, davg, njump, optimize=True)
    loc -= cross + cross.transpose(0, 2, 1)
    return loc


# -- the pseudo-pressure block system ----------------------------------------

def _pressure_blocks(tables, qv):
    """Local volume blocks (D, M_p) of the pseudo-pressure system.

    D (E, npp_loc, nu_loc) couples div u to the pseudo-pressure basis and
    M_p (E, npp_loc, npp_loc) is its mass matrix (per unit c_s^2).
    `tables` is the velocity space's volume of a chunk and `qv` the
    pseudo-pressure basis values at its points.
    """
    wdet, _, _, _, div = tables
    return (np.einsum("eq,eqi,eqj->eij", wdet, qv, div, optimize=True),
            np.einsum("eq,eqi,eqj->eij", wdet, qv, qv, optimize=True))


def _pressure_facet_blocks(coeffs, rule, fg, uv, qv):
    """Local boundary blocks (N, G) of the pseudo-pressure system on a
    chunk fg of the boundary facets: the normal penalty N (F, nu_loc,
    nu_loc) and the coupling G (F, npp_loc, nu_loc) of u.n to the
    pseudo-pressure, from the velocity and pseudo-pressure values uv, qv
    on the facets' owners."""
    wq = rule.weights * fg.dline
    un = np.einsum("fqjc,fqc->fqj", uv, fg.normals, optimize=True)
    pen = coeffs.lambda_n / fg.length
    return (pen[:, None, None] * np.einsum("fq,fqi,fqj->fij", wq, un, un,
                                           optimize=True),
            np.einsum("fq,fqi,fqj->fij", wq, qv, un, optimize=True))


def assemble_m2_system(D, Mp, N, G):
    """B_h of the pseudo-pressure formulation, per unit c_s^2.

    Unknowns (u_h, p_h).  B_h = [[N, (D - G)^T], [D - G, -M_p]] with N
    the boundary normal penalty, D and G the volume and boundary couplings
    of u_h to p_h and M_p the pseudo-pressure mass matrix, all CSR.  With
    A_h = blockdiag(a_h, 0), which _assemble scatters at the (u_h, p_h)
    size, -A_h + c_s^2 B_h is symmetric indefinite; eliminating p_h
    reproduces -a + b^pp with the L2 projection of the divergence.
    """
    DG = D - G
    return sp.bmat([[N, DG.T], [DG, -Mp]], format="csr")


# -- method dispatch ----------------------------------------------------------

# Facet sets, by the `boundary` flag of Mesh.facet_quadrature.
INTERIOR, BOUNDARY = False, True

# method -> (velocity family, pseudo-pressure family, facet sets of a_h,
# facet sets of b_h).  Every a_h is assemble_a_volume plus assemble_a_dg
# on its facet sets; every b_h likewise with assemble_b_volume and
# assemble_b_dg.  Strong boundary constraints come
# with the space: only BDM pins dofs (its boundary normal moments).  A
# method with a pseudo-pressure family (M2) has its operator pair on
# (u_h, p_h), B_h from assemble_m2_system; its forms are those of its
# triple norm, with div replaced by the weighted projection onto the
# pseudo-pressure space.  _assemble composes every pair from this table,
# calling the forms through this module's attributes, so a wrapper
# installed on one (a profiler or tracer) sees every call.
METHOD_FORMS = {
    "M1": ("vector_lagrange", None, (), (BOUNDARY,)),
    "M2": ("vector_lagrange", "scalar_lagrange", (), (BOUNDARY,)),
    "M3": ("hdiv_bdm", None, (INTERIOR,), ()),
    "M4": ("vector_dg", None, (INTERIOR,), (INTERIOR, BOUNDARY)),
}


@dataclass
class MethodSystem:
    """Operator pair (A_h, B_h) of one method on one mesh, and its load.

    B_h is assembled per unit c_s^2, so the discrete operator at any c_s^2
    is -A_h + c_s^2 B_h (`system_at`), and one pair and load serve a whole
    c_s^2 sweep; `system` is the one at the c_s^2 of the coefficients
    assembled with.  `load` is read-only and zero on pseudo-pressure rows.
    `split` turns solutions into fields.
    """
    velocity_space: object
    pressure_space: object      # M2's pseudo-pressure space, else None
    a: object                   # A_h, CSR
    b: object                   # B_h per unit c_s^2, CSR
    load: object                # the load of the forcing, None without one
    cs2: float                  # the c_s^2 of `system`
    rotation: object            # the velocity space's Rotation

    def system_at(self, cs2):
        """(cs2 B_h - A_h) x = load; ValueError unless cs2 is a positive,
        finite number."""
        return LinearSystem(check_number("cs2", cs2, "positive") * self.b - self.a,
                            self.load, self.velocity_space.constrained_dofs)

    @cached_property
    def system(self):
        """The system at the coefficients assembled with."""
        return self.system_at(self.cs2)

    def split(self, x):
        """(velocity, pseudo-pressure or None) DiscreteFields of raw
        solutions x, (n,) or (n, k)."""
        nu = self.velocity_space.ndof
        return (DiscreteField(self.velocity_space, x[:nu]),
                None if self.pressure_space is None
                else DiscreteField(self.pressure_space, x[nu:]))


def _method_forms(method):
    """The METHOD_FORMS entry of a method; ValueError for an unknown one."""
    if method not in METHOD_FORMS:
        raise ValueError(f"unknown method {method!r}")
    return METHOD_FORMS[method]


def check_degree(method, p, error=DegreeError):
    """int(p) for a degree of a method: an integer >= 1, >= 2 with a
    pseudo-pressure family (M2's, built at p - 1); else `error`."""
    return check_integer(f"{method} degree", p,
                         1 if _method_forms(method)[1] is None else 2, error)


def method_spaces(method, mesh, p):
    """The (velocity, pseudo-pressure or None) spaces of a method at degree
    p; DegreeError unless check_degree accepts p."""
    vel_family, pp_family, _, _ = _method_forms(method)
    p = check_degree(method, p)
    return (build_space(vel_family, mesh, p), None if pp_family is None
            else build_space(pp_family, mesh, p - 1))


class Rotation:
    """The hexagon fan's rotation R by 60 degrees on a space, as index
    tables: the element and facet orbits that _assemble walks, with the
    turns that carry each representative onto its images, and R's dof
    table (dofs).

    R maps element e onto e' = (e + T/6) mod T (Mesh.rotated_elements) in
    the same local order, so it takes each Lagrange node of e to that of
    e', and each Piola-mapped basis function i of e to that of e' times
    s[e', i] s[e, i] = +-1 for BDM's per-element scale s
    (FeSpace._bdm_scale; 1 for vector DG): the Piola map commutes with R.
    On a space of a Piola family (PIOLA_FAMILIES) on a mesh with the
    symmetry (Mesh.rotated_facets succeeds), R^j, j = 0..5, turns element
    e onto images[j, e] and its basis function i onto that of the image
    times signs[j, e, i] (None for vector DG).  The forms are invariant
    under R, so image j of a local block is the block times outer(s, s)
    for the signs s of its owners' images, and the representatives are
    the T/6 elements of sector 0 and the first facet of each 6-facet
    orbit.  On any other space or mesh the one turn is the identity, each
    element and facet is its own orbit and signs is None: the full walk.
    """

    def __init__(self, space):
        mesh, nt = space.mesh, space.mesh.num_triangles
        self.space, self.facet_image, self.signs = space, None, None
        if space.family in PIOLA_FAMILIES:
            try:
                self.facet_image = mesh.rotated_facets()
            except ValueError:
                pass
        m = 1 if self.facet_image is None else 6
        self.mesh, self.elements = mesh, nt // m
        self.images = (np.arange(nt) + self.elements * np.arange(m)[:, None]
                       ) % nt
        if m == 6 and space.family == "hdiv_bdm":
            s = np.sign(space._bdm_scale)
            self.signs = s[self.images] * s
        # R^j, stacked to turn (m, E, q, 2) rows of values back by R^-j
        self.rotations = np.stack([np.linalg.matrix_power(FAN_ROTATION, j)
                                   for j in range(m)])[:, None]

    def dofs(self, constrained):
        """R's dof table (image, tau, partner) on the free dofs, those not
        in constrained, numbered as restrict_free numbers them: R turns dof
        d onto omega^tau[d] times dof image[d], omega = exp(i pi/3) and tau
        0 or 3, and a vector Lagrange node's (u_x, u_y), dof d and its
        partner, onto its image's pair turned by tau = 1 sixth.  ValueError
        for a mesh without the symmetry, elements that disagree on a shared
        dof's image or sign, or a free dof turned onto a constrained one."""
        space, n, dofs = self.space, self.space.ndof, self.space.dof_map
        turned = (self.images[1] if len(self.images) == 6
                  else self.mesh.rotated_elements())
        local = 0 if self.signs is None else np.where(self.signs[1] < 0, 3, 0)
        image, tau = np.empty(n, dtype=int), np.empty(n, dtype=int)
        image[dofs], tau[dofs] = dofs[turned], local
        if not (np.array_equal(image[dofs], dofs[turned])
                and np.all(tau[dofs] == local)):
            raise ValueError("the elements disagree on the image or sign of a "
                             "shared dof under the rotation")
        d = np.arange(n)
        partner = d
        if space.family == "vector_lagrange":     # (u_x, u_y) = (2v, 2v + 1)
            tau, partner = tau + 1, d ^ 1
        free = np.setdiff1d(d, constrained)
        number = np.full(n, -1)
        number[free] = np.arange(len(free))
        image, partner = number[image[free]], number[partner[free]]
        if np.any(np.minimum(image, partner) < 0):
            raise ValueError("the rotation turns a free dof onto a "
                             "constrained one")
        return image, tau[free], partner

    def facets(self, boundary):
        """The representatives among the facets of one set, as positions
        in the set (Mesh.facet_quadrature's order): all of them, or those
        that come first in their orbits."""
        if self.facet_image is None:
            return slice(None)
        facets = np.flatnonzero(self.mesh.facet_boundary == boundary)
        orbit = [facets]
        for _ in range(5):
            orbit.append(self.facet_image[orbit[-1]])
        return np.flatnonzero(facets == np.min(orbit, axis=0))

    def owners(self, space, elems):
        """The dofs (m F, ns nloc) of every image of owners `elems`, a list
        of ns (F,) arrays, side by side in image-major order, and their
        signs (m, F, ns nloc), or None."""
        dofs = np.concatenate([space.dof_map[self.images[:, e]]
                               for e in elems], axis=-1)
        signs = None if self.signs is None else np.concatenate(
            [self.signs[:, e] for e in elems], axis=-1)
        return dofs.reshape(-1, dofs.shape[-1]), signs

    def turn(self, blocks, signs):
        """The local blocks (m F, k, l) of every image, from `blocks`, the
        list of the representatives' chunks of blocks (F, k, l), joined at
        once, as if from one chunk; the list is emptied.  Image j is the
        block times outer(s, s) for s = signs[j], or the block itself."""
        loc = np.concatenate(blocks)
        blocks.clear()
        if signs is not None:
            return (loc * signs[..., :, None] * signs[..., None, :]).reshape(
                (-1,) + loc.shape[1:])
        m = len(self.images)
        return loc if m == 1 else np.tile(loc, (m, 1, 1))


def _assemble(method, rotation, coeffs, order, pp_space, f):
    """(A_h, B_h, load of f or None) of a method on rotation.space, chunk
    by chunk.

    The operator (assemble_method), the dense diagnostics (f None) and
    the triple-norm error (error_norms, on its _ErrorSpace) all take their
    pair from here.  The walk visits the representatives of the element
    and facet orbits of `rotation`, a Rotation: sector 0's elements and
    one facet of each orbit of six on a Piola space of the hexagon fan,
    every element and facet otherwise.  The elements, then each facet set
    the method has terms on, interior first, are walked in chunks of at
    most CHUNK representatives.  A chunk's tables come from the space walked, its
    volume and facet_basis; every form with terms there reads them, and
    they are dropped before the next chunk's are built.  The element
    table feeds the volume terms and the load, a facet set's traces of
    both owners feed both forms and, on M2's boundary, its N and G with
    the pseudo-pressure values.  The load contracts f at every image's
    own points, turned back by R^-j, with its representative's basis.
    Each form's blocks of all chunks of a point set are turned onto every
    image and scattered at once (Rotation.turn), so no matrix depends on
    CHUNK, bit for bit; the sector walk equals the full walk to
    round-off, not bit for bit.  With a pp_space (M2),
    A_h and the load are scattered on (u_h, p_h), n = ndof_u + ndof_p
    entries, zero on the pseudo-pressure rows, and B_h is
    assemble_m2_system's.
    """
    _, _, a_sets, b_sets = METHOD_FORMS[method]
    space, nu = rotation.space, rotation.space.ndof
    n = nu if pp_space is None else nu + pp_space.ndof     # A_h's size
    dofs, signs = rotation.owners(space, [np.arange(rotation.elements)])
    phys = space.mesh.element_quadrature(order)[2]
    a, b, rhs, d, mp, g = [], [], [], [], [], []   # each form's blocks
    for elems in _chunks(rotation.elements):
        t = space.volume(order, elems)
        a.append(assemble_a_volume(coeffs, t))
        if f is not None:
            # f at each image's own points, turned back: R^-j f as rows
            own = eval_pointwise(f, phys[rotation.images[:, elems]])
            rhs.append(assemble_rhs(own @ rotation.rotations, t))
        if pp_space is None:
            b.append(assemble_b_volume(t))
        else:
            blocks = _pressure_blocks(t, pp_space.volume(order, elems)[2])
            d.append(blocks[0])
            mp.append(blocks[1])
        del t
    A = assemble_csr(dofs, dofs, rotation.turn(a, signs), (n, n))
    load = None
    if f is not None:
        rhs = np.concatenate(rhs, axis=1)
        load = assemble_vector(dofs, rhs if signs is None else rhs * signs,
                               n)
    if pp_space is None:
        B = assemble_csr(dofs, dofs, rotation.turn(b, signs), (n, n))
    else:
        npp, pdofs = pp_space.ndof, pp_space.dof_map
        D = assemble_csr(pdofs, dofs, rotation.turn(d, None), (npp, nu))
        Mp = assemble_csr(pdofs, pdofs, rotation.turn(mp, None), (npp, npp))
    for boundary in sorted(set(a_sets + b_sets)):
        rule, fg = space.mesh.facet_quadrature(order, boundary)
        fg = fg.part(rotation.facets(boundary))
        for facets in _chunks(len(fg.length)):
            part = fg.part(facets)
            qv = None if pp_space is None else pp_space.eval_basis(
                part.sides[0][0], part.ref_points[0])[0]
            traces = space.facet_basis(part)
            if boundary in a_sets:
                a.append(assemble_a_dg(coeffs, rule, part, traces))
            if pp_space is not None:
                blocks = _pressure_facet_blocks(coeffs, rule, part,
                                                traces[0], qv)
                b.append(blocks[0])
                g.append(blocks[1])
            elif boundary in b_sets:
                b.append(assemble_b_dg(coeffs, rule, part, traces))
            del traces, qv
        owners = [e for e, _, _ in fg.sides]
        fdofs, fsigns = rotation.owners(space, owners)
        if boundary in a_sets:
            A = A + assemble_csr(fdofs, fdofs, rotation.turn(a, fsigns), (n, n))
        if pp_space is not None:    # M2's boundary normal penalty, coupling
            N = assemble_csr(fdofs, fdofs, rotation.turn(b, None), (nu, nu))
            G = assemble_csr(rotation.owners(pp_space, owners)[0], fdofs,
                             rotation.turn(g, None), (npp, nu))
        elif boundary in b_sets:
            B = B + assemble_csr(fdofs, fdofs, rotation.turn(b, fsigns), (n, n))
    if pp_space is not None:
        B = assemble_m2_system(D, Mp, N, G)
    return A, B, load


def assemble_method(method, mesh, p, coeffs, f, order=None):
    """Assemble the operator pair of one method and the load of f;
    -A_h + c_s^2 B_h is its operator.  `order` is the quadrature order,
    quadrature_order of the velocity space by default."""
    vel, pp = method_spaces(method, mesh, p)
    order = quadrature_order(vel) if order is None else order
    rotation = Rotation(vel)
    A, B, load = _assemble(method, rotation, coeffs, order, pp, f)
    if load is not None:
        load.setflags(write=False)
    return MethodSystem(vel, pp, A, B, load, coeffs.cs2, rotation)


# -- error norms ---------------------------------------------------------------

class _ErrorSpace:
    """The errors e_j = u_h[:, j] - u of k fields as a space of k functions.

    `u_h` is a DiscreteField with coefficients (ndof, k).  The space has
    what _assemble reads of a space: no family, so the walk is the full
    one (Rotation), the same k dofs 0..k-1 on every element and the
    FeSpace methods volume and facet_basis, whose tables
    hold e_1..e_k as its basis, so the pair _assemble composes on it
    holds a_h(e_j, e_j) and b_h(e_j, e_j) on its k x k diagonals.  The
    element tables at `order` (`tables`, and u_h's values `vals`) are
    evaluated once, whole, so the L2 norms sum over all elements in one
    pass; `volume` slices them per chunk.  `facet_basis` evaluates u_h on
    each owner of a facet chunk and the exact solution once, at owner 0's
    points, where it is continuous.  With a `pp_space` (M2), div e_j is
    its L2 projection onto that space, one solve for all k.
    """
    family = None

    def __init__(self, u_h, exact, order, pp_space):
        self.mesh = u_h.space.mesh
        self.ndof = u_h.coefficients.shape[1]
        self.dof_map = np.broadcast_to(np.arange(self.ndof),
                                       (self.mesh.num_triangles, self.ndof))
        self.u_h, self.exact, self.div = u_h, exact, None
        rule, wq, phys = self.mesh.element_quadrature(order)
        elems = np.arange(self.mesh.num_triangles)
        self.vals, errors = self._errors(elems, rule.points, self._at(phys))
        self.tables = (wq, phys) + errors
        if pp_space is not None:
            # L2 projection of each div e_j (D holds their loads)
            D, Mp = _pressure_blocks(self.tables, pp_space.volume(order)[2])
            pdofs, npp = pp_space.dof_map, pp_space.ndof
            D = assemble_csr(pdofs, self.dof_map, D, (npp, self.ndof))
            Mp = assemble_csr(pdofs, pdofs, Mp, (npp, npp))
            self.div = DiscreteField(pp_space, spla.spsolve(
                Mp.tocsc(), D.toarray()).reshape(npp, self.ndof))
            self.tables = self.tables[:4] + (self.div.evaluate(
                elems, rule.points)[0],)

    def _at(self, pts):
        """The exact u, grad u and div u at physical points pts."""
        return [eval_pointwise(f, pts) for f in (
            self.exact.u, self.exact.grad_u, self.exact.div_u)]

    def _errors(self, elems, ref_pts, exact):
        """(u_h values, (values, gradients, divergences) of e) at ref_pts of
        elems, from `exact` _at their physical points; the k fields stand
        where eval_basis has its basis axis."""
        u, grad_u, div_u = exact
        vals, grads, div = self.u_h.evaluate(elems, ref_pts)
        return vals, (vals - u[..., None, :], grads - grad_u[..., None, :, :],
                      div - div_u[..., None] if self.div is None
                      else self.div.evaluate(elems, ref_pts)[0])

    def volume(self, order, elems):
        """FeSpace.volume of the errors: the chunk `elems` of `tables` (at
        the order they were evaluated at, error_norms' order)."""
        return tuple(t[elems] for t in self.tables)

    def facet_basis(self, fg):
        """FeSpace.facet_basis of the errors on a facet chunk fg."""
        exact = self._at(fg.points)
        return side_by_side([self._errors(e, rp, exact)[1]
                             for (e, _, _), rp in zip(fg.sides,
                                                      fg.ref_points)],
                            self.ndof)


def _l2(wq, vals):
    """L2 norm of each of the k fields of vals (E, q, k, c)."""
    return [float(np.sqrt(np.sum(wq * np.einsum("...c,...c->...", v, v))))
            for v in np.moveaxis(vals, 2, 0)]


def l2_norms(u_h, exact, order=None):
    """L2 error and L2 norm of discrete solutions, in one element pass.

    `u_h` is one DiscreteField of k solutions of one space, and the result
    a list of k dicts {"l2_error", "l2_norm"} in column order; l2_error is
    None without `exact` (a callable u).  `order` is quadrature_order of
    the space for "error norms" by default, error_norms' order, and the
    values equal error_norms' bit for bit.
    """
    space = u_h.space
    if order is None:
        order = quadrature_order(space, "error norms")
    rule, wq, phys = space.mesh.element_quadrature(order)
    vals, _, _ = u_h.evaluate(np.arange(space.mesh.num_triangles),
                              rule.points)
    norms = _l2(wq, vals)
    errors = ([None] * len(norms) if exact is None else
              _l2(wq, vals - eval_pointwise(exact.u, phys)[..., None, :]))
    return [{"l2_error": e, "l2_norm": n} for e, n in zip(errors, norms)]


def error_norms(u_h, exact, coeffs, method, pp_space=None, order=None):
    """L2 error, method triple-norm error, and L2 norm of discrete solutions.

    `u_h` is one DiscreteField of k solutions of one space, and the result
    a list of k dicts in column order.  The triple norm of the error
    e = u_h - u is a_h(e, e) + c_s^2 b_h(e, e) of the method's pair at the
    c_s^2 of `coeffs`, composed by _assemble on the _ErrorSpace of the k
    errors, whose k x k pair holds them on its diagonal; exact values and
    u_h traces are evaluated for all k at once, on the elements whole and
    on the facet sets the method has terms on chunk by chunk.  For a
    method with a pseudo-pressure family, div e is replaced by its L2
    projection onto that space (pp_space, built when not given), one
    solve with k right-hand sides.  `exact` provides callables u, grad_u,
    div_u (or is None, in which case only the solution norm is reported,
    by l2_norms).  An unknown method raises ValueError, with or without
    `exact`.
    """
    _, pp_family, _, _ = _method_forms(method)
    space = u_h.space
    if order is None:
        order = quadrature_order(space, "error norms")
    if exact is None:
        return [{"l2_error": None, "xh_error": None, "l2_norm": r["l2_norm"]}
                for r in l2_norms(u_h, None, order)]

    if pp_family is not None and pp_space is None:
        pp_space = build_space(pp_family, space.mesh, space.degree - 1)
    err = _ErrorSpace(u_h, exact, order,
                      None if pp_family is None else pp_space)
    A, B, _ = _assemble(method, Rotation(err), coeffs, order, None, None)
    xh2 = A.diagonal() + coeffs.cs2 * B.diagonal()
    wq = err.tables[0]
    return [{"l2_error": e, "xh_error": float(np.sqrt(max(x, 0.0))),
             "l2_norm": n}
            for e, x, n in zip(_l2(wq, err.tables[2]), xh2, _l2(wq, err.vals))]
