"""Finite element spaces: reference bases, global dof maps, field evaluation.

Four families are provided:

* ``scalar_lagrange`` -- continuous P^p (pseudo-pressure space),
* ``vector_lagrange`` -- continuous [P^p]^2 (H^1-conforming velocity),
* ``vector_dg``       -- discontinuous [P^p]^2, Piola-mapped,
* ``hdiv_bdm``        -- Brezzi-Douglas-Marini, normal-continuous.

The two discontinuous families are mapped with the contravariant Piola
transform.  On affine elements this is just a change of basis of [P^p]^2,
but on curved elements it is essential: it keeps element-wise divergence-free
reference fields divergence-free in physical space, which the locking-free
and gradient-robustness properties rely on.

BDM's dofs are the moments of the normal trace on each facet against
Legendre polynomials in the global facet parameter and the moments
int_ref u_ref . w dxi on the reference triangle against fixed fields w,
which equal the physical ones against J^-T w.  So an element's basis is a
per-element scale times the Piola image of one reference basis, and every
element evaluates the *same* global facet functionals (through
`elem_flipped`): normal continuity needs no dof sign table.

Basis tables are reference tables mapped by per-element geometry.  The
Piola gradient (dP u + P g) J^-1 has a term in the derivative dP of the
Piola matrix, which vanishes on affine elements, so it is formed on the
curved elements of a batch only.
"""

import functools

import numpy as np

from .mesh import GeometryMap
from .quadrature import (check_integer, quadrature_orders, segment_rule,
                         triangle_rule)
from .reference import (EDGE_NORMALS, EDGE_VERTICES, REF_VERTICES,
                        eval_monomials, lagrange_basis, monomial_exponents,
                        shifted_legendre)

FAMILIES = ("scalar_lagrange", "vector_lagrange", "vector_dg", "hdiv_bdm")
PIOLA_FAMILIES = ("vector_dg", "hdiv_bdm")


class DegreeError(ValueError):
    pass


def quadrature_order(space, use="assembly"):
    """Exactness order of quadrature on a space for a use, its entry of
    quadrature_orders: "assembly" by default, or "error norms"."""
    return quadrature_orders(space.degree, space.mesh.geom_order)[use]


def build_space(family, mesh, p):
    """The space of a family at degree p on a mesh; ValueError for an
    unknown family, DegreeError unless p is an integer >= 1."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FeSpace(family, mesh, check_integer("degree", p, 1, DegreeError))


class FeSpace:
    def __init__(self, family, mesh, degree):
        self.family = family
        self.mesh = mesh
        self.degree = degree
        self._build_dof_map()
        if family == "hdiv_bdm":
            self._bdm_scale = self._bdm_scale_table()

    @property
    def ncomp(self):
        return 1 if self.family == "scalar_lagrange" else 2

    # -- dof maps ---------------------------------------------------------

    def _build_dof_map(self):
        """Dofs of each element: its vertex and facet dofs, then a block of
        element-interior dofs numbered after all shared ones.

        The Lagrange nodes of a facet are numbered along the facet's
        direction, so an element whose edge runs against it takes them in
        reverse; the x/y components of a vector Lagrange dof are adjacent.
        """
        p = self.degree
        mesh = self.mesh
        nt, nf, nv = mesh.num_triangles, mesh.num_facets, mesh.num_vertices
        facets = mesh.elem_facets[..., None]
        self.constrained_dofs = np.array([], dtype=int)
        if self.family == "vector_dg":
            blocks, nint, shared = [], (p + 1) * (p + 2), 0
        elif self.family == "hdiv_bdm":
            blocks = [facets * (p + 1) + np.arange(p + 1)]
            nint, shared = p * p - 1, nf * (p + 1)
            bnd = np.nonzero(mesh.facet_boundary)[0]
            self.constrained_dofs = (bnd[:, None] * (p + 1)
                                     + np.arange(p + 1)).ravel()
        else:
            s = np.arange(p - 1)
            along = np.where(mesh.elem_flipped[..., None], p - 2 - s, s)
            blocks = [mesh.triangles, nv + facets * (p - 1) + along]
            nint, shared = (p - 1) * (p - 2) // 2, nv + nf * (p - 1)
        interior = shared + np.arange(nt * nint).reshape(nt, nint)
        self.dof_map = np.hstack([b.reshape(nt, -1) for b in blocks]
                                 + [interior])
        self.ndof = shared + nt * nint
        if self.family == "vector_lagrange":
            self.dof_map = np.stack([2 * self.dof_map, 2 * self.dof_map + 1],
                                    axis=-1).reshape(nt, -1)
            self.ndof *= 2

    def _bdm_scale_table(self):
        """Scale s (E, nloc): basis i of element e is s[e, i] times the Piola
        image of reference basis i (bdm_basis).  As (u . n) ds = (u_ref .
        n_ref) dl_ref, 1 / s scales the reference facet dofs by the owner's
        sign, reference edge length / chord and (-1)^j where the edge runs
        against the facet (L_j(1 - t) = (-1)^j L_j(t)), and no interior dof."""
        p, mesh = self.degree, self.mesh
        facets = mesh.elem_facets
        owner = mesh.facet_elems[facets, 0] == np.arange(len(facets))[:, None]
        va, vb = np.transpose(EDGE_VERTICES)
        ell = np.linalg.norm(REF_VERTICES[vb] - REF_VERTICES[va], axis=-1)
        s = (mesh.facet_length(facets) / np.where(owner, ell, -ell))[..., None]
        s = s * (-1.0) ** (np.arange(p + 1) * mesh.elem_flipped[..., None])
        return np.hstack([s.reshape(len(facets), -1),
                          np.ones((len(facets), p * p - 1))])

    # -- tables of a chunk --------------------------------------------------

    def volume(self, order, elems=slice(None)):
        """Weights * det, points and basis tables (eval_basis) at quadrature
        order `order` of the elements of the slice `elems`, all by default."""
        rule, wdet, phys = self.mesh.element_quadrature(order)
        return (wdet[elems], phys[elems]) + self.eval_basis(
            np.arange(self.mesh.num_triangles)[elems], rule.points)

    def facet_basis(self, fg):
        """Basis traces of every owner of a facet batch fg, owners side by
        side (side_by_side)."""
        return side_by_side([self.eval_basis(e, rp) for (e, _, _), rp
                             in zip(fg.sides, fg.ref_points)],
                            self.dof_map.shape[1])

    # -- basis evaluation ---------------------------------------------------

    def eval_basis(self, elems, ref_pts):
        """Physical basis values on the elements of the int array `elems`.

        `ref_pts` is (q, 2), shared by every element, or (E, q, 2), one set
        per element.  Returns (values, gradients, divergences): for the
        vector families (E, q, nloc, 2), (E, q, nloc, 2, 2) with
        grad[c, d] = d u_c / d x_d, and (E, q, nloc); for the scalar
        pseudo-pressure family only its values, (E, q, nloc), None, None.
        """
        return self._evaluate(elems, ref_pts)

    def _evaluate(self, elems, ref_pts, coefficients=None):
        """eval_basis, or with (ndof, k) coefficients the k fields they
        span, one per column, in place of its basis axis.  The
        coefficients are applied on the reference element, before the
        (linear) map to the physical elements, so a field evaluation never
        forms arrays with a basis axis.
        """
        if np.ndim(elems) != 1:
            raise ValueError(f"elems must be a 1-D int array, got {elems!r}")
        ref = np.asarray(ref_pts, dtype=float)
        u, g = self._reference_shapes(elems, ref, coefficients)
        return self._map(elems, ref, u, g)

    def _reference_shapes(self, elems, ref, coefficients):
        """Local shapes on the reference element and their reference gradients.

        Shapes are the nodal Lagrange basis (as x/y copies for vectors) or
        one reference BDM table (bdm_basis) times each element's BDM scale,
        which a field takes into its coefficients.  Values are (..., q, n)
        or (..., q, n, 2), gradients have one more trailing axis; with
        coefficients n is their number of columns, the fields they span.
        """
        if self.family == "hdiv_bdm":
            exps = monomial_exponents(self.degree)
            u = _ref_table(lambda x: eval_monomials(exps, x), ref)
            g = _ref_table(lambda x: eval_monomials(exps, x, 1), ref)
        else:
            basis = lagrange_basis(self.degree)
            u, g = _ref_table(basis.eval, ref), _ref_table(basis.grad, ref)
        if self.ncomp == 2:
            u, g = _xy_copies(u), _xy_copies(g, axis=-2)
        W = None if coefficients is None else coefficients[self.dof_map[elems]]
        if self.family == "hdiv_bdm":
            C, s = bdm_basis(self.degree), self._bdm_scale[elems]
            if W is None:
                u = np.einsum("...mc,mi->...ic", u, C, optimize=True)
                g = np.einsum("...mcd,mi->...icd", g, C, optimize=True)
                return u * s[:, None, :, None], g * s[:, None, :, None, None]
            W = C @ (s[..., None] * W)
        if W is None:
            return u, g
        lead = "q" if ref.ndim == 2 else "eq"
        return (np.einsum(lead + "m...,emi->eqi...", u, W, optimize=True),
                np.einsum(lead + "m...,emi->eqi...", g, W, optimize=True))

    def _map(self, elems, ref, u, g):
        """(values, gradients, divergences) on the physical elements.

        Lagrange shapes keep their values; gradients map by J^-1.  The Piola
        map sends a reference field u with reference gradient g to P u with
        P = J / det J, divergence div_ref u / det J and gradient
        (dP u + P g) J^-1, where dP = dP / d ref.  dP is zero on affine
        elements, so its term is formed on the curved elements only.
        Scalar Lagrange values (values only, None, None) need no geometry.
        """
        if self.family == "scalar_lagrange":
            return np.broadcast_to(u, (len(elems),) + u.shape[-2:]), None, None
        gm = self.mesh.geometry(elems)
        jac = gm.jacobian(ref)
        if self.family == "vector_lagrange":
            grads = np.einsum("...qncd,...qde->...qnce", g,
                              GeometryMap.inv(jac), optimize=True)
            return (np.broadcast_to(u, grads.shape[:-1]), grads,
                    grads[..., 0, 0] + grads[..., 1, 1])
        det = GeometryMap.dets(jac)
        P = jac / det[..., None, None]                        # Piola matrix
        vals = np.einsum("...qck,...qik->...qic", P, u, optimize=True)
        div = (g[..., 0, 0] + g[..., 1, 1]) / det[..., None]
        jinv = GeometryMap.inv(jac)
        # contract the per-point geometric factors with J^-1 first, so the
        # only arrays with a basis axis are the terms of the result
        grads = np.einsum("...qcked,...qike->...qicd", np.einsum(
            "...qck,...qed->...qcked", P, jinv), g, optimize=True)
        c = gm.curved
        if len(c):
            jac, det, jinv = jac[c], det[c], jinv[c]
            dJ = gm.curved_jacobian_derivative(ref)
            # d det / d ref_e = det * tr(J^-1 dJ/dref_e)
            ddet = det[..., None] * np.einsum("...ij,...jie->...e", jinv, dJ)
            dP = (dJ / det[..., None, None, None]
                  - jac[..., None] * ddet[..., None, None, :]
                  / (det ** 2)[..., None, None, None])
            # u has an element axis unless it is one table for all elements
            uc = u[c] if u.ndim == jac.ndim else u
            grads[c] += np.einsum("...qckd,...qik->...qicd", np.einsum(
                "...qcke,...qed->...qckd", dP, jinv), uc, optimize=True)
        return vals, grads, div


def bdm_moment_fields(p, pts):
    """BDM's interior test fields w at reference points, (npts, p^2 - 1, 2):
    [P^{p-2}]^2, then X^perp X^a Y^(p-2-a) for a = 0..p-2, in X = xi -
    (1/3, 1/3), orthonormalised in that order in L^2 of the reference
    triangle."""
    rule = triangle_rule(2 * p)
    X = np.vstack([rule.points, pts]) - 1.0 / 3.0
    mono = eval_monomials(monomial_exponents(p - 2), X)
    perp = np.column_stack([-X[:, 1], X[:, 0]])[:, None]
    w = np.concatenate([_xy_copies(mono), perp * mono[:, :-p:-1, None]], 1)
    wq, w = w[:len(rule.weights)], w[len(rule.weights):]
    gram = np.einsum("q,qic,qjc->ij", rule.weights, wq, wq)
    return np.linalg.solve(np.linalg.cholesky(gram), w)


@functools.cache
def bdm_basis(p):
    """Coefficients C (2 nm, nloc) over x/y copies of the nm monomials of
    BDM's reference basis of degree p, dual to the moments int_0^1 (u .
    n_k) L_j(t) dt on each edge k (t from its first vertex) for the shifted
    Legendre L_0..L_p, then int_ref u . w dxi for bdm_moment_fields w."""
    shapes = lambda x: _xy_copies(eval_monomials(monomial_exponents(p), x))
    srule, vrule = segment_rule(2 * p), triangle_rule(2 * p)
    wleg = srule.weights * np.array(
        [shifted_legendre(j, srule.points[:, 0]) for j in range(p + 1)])
    rows = [wleg @ (shapes(REF_VERTICES[va] + srule.points
                           * (REF_VERTICES[vb] - REF_VERTICES[va])) @ n)
            for (va, vb), n in zip(EDGE_VERTICES, EDGE_NORMALS)]
    rows.append(np.einsum("q,qic,qmc->im", vrule.weights, bdm_moment_fields(
        p, vrule.points), shapes(vrule.points)))
    return np.linalg.inv(np.vstack(rows))


def _ref_table(table, ref):
    """table(points) at (q, 2) or (E, q, 2) points, keeping leading axes."""
    t = table(ref.reshape(-1, 2))
    return t.reshape(ref.shape[:-1] + t.shape[1:])


def _xy_copies(table, axis=-1):
    """x/y copies of scalar shapes as vector fields, interleaved.

    `axis` is the shape axis of `table`: values (..., q, nm) (axis -1) give
    (..., q, 2 nm, 2); gradients (..., q, nm, 2) (axis -2) give
    (..., q, 2 nm, 2, 2) with [c, d] = d u_c / d_d.
    """
    nm = table.shape[axis]
    out = np.zeros(table.shape[:axis] + (2 * nm, 2) + table.shape[axis:][1:])
    for c in range(2):
        out[(Ellipsis, slice(c, None, 2), c) + (slice(None),) * (-1 - axis)] \
            = table
    return out


class DiscreteField:
    """k fields of an FeSpace, evaluable element-wise.

    `coefficients` are (ndof, k), one field per column; a vector (ndof,)
    is stored as the one column (ndof, 1).
    """

    def __init__(self, space, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim not in (1, 2) or len(coefficients) != space.ndof:
            raise ValueError("coefficient length does not match ndof")
        self.space = space
        self.coefficients = coefficients.reshape(space.ndof, -1)

    def evaluate(self, elems, ref_pts):
        """(values, gradients, divergences) of the k fields on the elements
        of the int array `elems`, as FeSpace.eval_basis returns them, with
        the k fields in place of its basis axis."""
        return self.space._evaluate(elems, ref_pts, self.coefficients)


def side_by_side(traces, nloc):
    """The traces of a facet batch's owners as one table: `traces` holds the
    (values, gradients, divergences) of each owner, with `nloc` basis
    functions (or fields) each.  Returns them concatenated along the basis
    axis, and the sign of each basis function: +1 on owner 0 and -1 on
    owner 1."""
    return (*(np.concatenate(part, axis=2) for part in zip(*traces)),
            np.repeat([1.0, -1.0][:len(traces)], nloc))


def eval_pointwise(fun, pts):
    """Pointwise callable fun((n, 2) points) applied to (..., 2) points."""
    out = np.asarray(fun(pts.reshape(-1, 2)), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])
