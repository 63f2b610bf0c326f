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

BDM shape functions are contravariant Piola images of reference vector
monomials; the local basis on each element is obtained by inverting the
matrix of degree-of-freedom functionals (facet moments of the normal
trace against Legendre polynomials in the global facet parameter, plus
interior moments).  Every element evaluates the *same* global facet
functionals, mapping the facet parameter onto its local edge through the
mesh's `elem_flipped`, so normal-trace continuity needs no dof sign table.

Basis tables are reference tables mapped by per-element geometry.  The
Piola gradient (dP u + P g) J^-1 has a term in the derivative dP of the
Piola matrix, which vanishes on affine elements, so it is formed on the
curved elements of a batch only.
"""

import numpy as np

from .mesh import GeometryMap, facet_ref_points
from .quadrature import check_integer, segment_rule, triangle_rule
from .reference import (EDGE_NORMALS, EDGE_VERTICES, REF_VERTICES,
                        eval_monomials, lagrange_basis, monomial_exponents,
                        shifted_legendre)

FAMILIES = ("scalar_lagrange", "vector_lagrange", "vector_dg", "hdiv_bdm")
PIOLA_FAMILIES = ("vector_dg", "hdiv_bdm")


class DegreeError(ValueError):
    pass


def quadrature_order(space):
    """Default exactness order of quadrature on a space: 2p for a product
    of two degree-p fields, 2(g - 1) for the Jacobian factors of a degree-g
    geometry map, plus 2."""
    return 2 * space.degree + 2 * (space.mesh.geom_order - 1) + 2


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
            self._bdm_coeffs = self._bdm_local_bases()

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

    # -- basis evaluation ---------------------------------------------------

    def eval_basis(self, elems, ref_pts, need_grad=True):
        """Physical basis values on the elements of the int array `elems`.

        `ref_pts` is (q, 2), shared by every element, or (E, q, 2), one set
        per element.  Returns (values, gradients, divergences):
        scalar family: (E, q, nloc), (E, q, nloc, 2), None;
        vector families: (E, q, nloc, 2), (E, q, nloc, 2, 2) with
        grad[c, d] = d u_c / d x_d, and (E, q, nloc).
        """
        return self._evaluate(elems, ref_pts, need_grad)

    def _evaluate(self, elems, ref_pts, need_grad, coefficients=None):
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
        return self._map(elems, ref, u, g, need_grad)

    def _reference_shapes(self, elems, ref, coefficients):
        """Local shapes on the reference element and their reference gradients.

        Shapes are the nodal Lagrange basis (as x/y copies for vectors) or
        the local BDM bases C[e] over x/y copies of the monomials.  Values
        are (..., q, n) or (..., q, n, 2), gradients have one more trailing
        axis; with coefficients n is their number of columns, the fields
        they span.
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
            C = self._bdm_coeffs[elems]
            W = C if W is None else C @ W
        if W is None:
            return u, g
        lead = "q" if ref.ndim == 2 else "eq"
        return (np.einsum(lead + "m...,emi->eqi...", u, W, optimize=True),
                np.einsum(lead + "m...,emi->eqi...", g, W, optimize=True))

    def _map(self, elems, ref, u, g, need_grad):
        """(values, gradients, divergences) on the physical elements.

        Lagrange shapes keep their values; gradients map by J^-1.  The Piola
        map sends a reference field u with reference gradient g to P u with
        P = J / det J, divergence div_ref u / det J and gradient
        (dP u + P g) J^-1, where dP = dP / d ref.  dP is zero on affine
        elements, so its term is formed on the curved elements only.
        Scalar Lagrange values need no geometry at all.
        """
        if self.family == "scalar_lagrange" and not need_grad:
            return np.broadcast_to(u, (len(elems),) + u.shape[-2:]), None, None
        gm = self.mesh.geometry(elems)
        jac = gm.jacobian(ref)
        if self.family == "scalar_lagrange":
            grads = np.einsum("...qnd,...qde->...qne", g, GeometryMap.inv(jac),
                              optimize=True)
            return np.broadcast_to(u, grads.shape[:-1]), grads, None
        if self.family == "vector_lagrange":
            grads = np.einsum("...qncd,...qde->...qnce", g,
                              GeometryMap.inv(jac), optimize=True)
            return (np.broadcast_to(u, grads.shape[:-1]), grads,
                    grads[..., 0, 0] + grads[..., 1, 1])
        det = GeometryMap.dets(jac)
        P = jac / det[..., None, None]                        # Piola matrix
        vals = np.einsum("...qck,...qik->...qic", P, u, optimize=True)
        div = (g[..., 0, 0] + g[..., 1, 1]) / det[..., None]
        if not need_grad:
            return vals, None, div
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

    # -- BDM construction ---------------------------------------------------

    def _bdm_local_bases(self):
        """Coefficient matrices C (E, nloc, nloc) of the local BDM bases.

        Column i of C[e] expresses basis function i of element e in the Piola
        images of the reference vector monomials; the basis is dual to the
        global facet moments and the element interior moments.
        """
        p = self.degree
        mesh = self.mesh
        exps = monomial_exponents(p)
        nloc = 2 * len(exps)
        elems = np.arange(mesh.num_triangles)
        M = np.zeros((len(elems), nloc, nloc))

        srule = segment_rule(2 * p + 2)
        ts = srule.points[:, 0]
        leg = np.array([shifted_legendre(j, ts) for j in range(p + 1)])
        facets = mesh.elem_facets
        sign = np.where(mesh.facet_elems[facets, 0] == elems[:, None],
                        1.0, -1.0)
        chord = mesh.facet_length(facets)
        for k, (va, vb) in enumerate(EDGE_VERTICES):
            ell = np.linalg.norm(REF_VERTICES[vb] - REF_VERTICES[va])
            rp = facet_ref_points(k, ts, mesh.elem_flipped[:, k])
            mono = _ref_table(lambda x: eval_monomials(exps, x), rp)
            nref = EDGE_NORMALS[k]
            # identity (u . n) ds = (u_ref . n_ref) dl_ref makes the facet
            # moment a pure reference-element integral
            w = (srule.weights * leg * sign[:, k, None, None] * ell
                 / chord[:, k, None, None])                 # (E, p+1, q)
            rows = slice(k * (p + 1), (k + 1) * (p + 1))
            for c in range(2):
                M[:, rows, c::2] = np.einsum("ejq,eqm->ejm", w,
                                             mono * nref[c], optimize=True)

        if p >= 2:
            vrule = triangle_rule(quadrature_order(self) + 4)
            gm = mesh.geometry(elems)
            jac = gm.jacobian(vrule.points)
            det = GeometryMap.dets(jac)
            shp = _xy_copies(eval_monomials(exps, vrule.points))
            shp = shp @ np.swapaxes(jac / det[..., None, None], -1, -2)
            wm = self._interior_moment_fields(elems, gm.points(vrule.points))
            area = det @ vrule.weights
            wq = vrule.weights * det / area[:, None]
            M[:, 3 * (p + 1):, :] = np.einsum("eq,eqid,eqmd->emi",
                                              wq, shp, wm, optimize=True)
        return np.linalg.inv(M)

    def _interior_moment_fields(self, elems, phys_pts):
        """Interior moment test fields at physical points, (E, q, nint, 2).

        Full [P^{p-2}]^2 plus the rotated homogeneous tail X^perp * P~^{p-2},
        in element-centered, diameter-scaled coordinates.
        """
        p = self.degree
        v = self.mesh.vertices[self.mesh.triangles[elems]]      # (E, 3, 2)
        xc = v.mean(axis=1)
        h = np.linalg.norm(v[:, [1, 2, 2]] - v[:, [0, 0, 1]], axis=-1).max(1)
        X = (phys_pts - xc[:, None, :]) / h[:, None, None]
        exps = monomial_exponents(p - 2)
        mono = _ref_table(lambda x: eval_monomials(exps, x), X)
        nm2 = mono.shape[-1]
        fields = np.zeros(X.shape[:2] + (2 * nm2 + (p - 1), 2))
        fields[..., 0:2 * nm2:2, 0] = mono
        fields[..., 1:2 * nm2:2, 1] = mono
        for i, a in enumerate(range(p - 1)):
            q = X[..., 0] ** a * X[..., 1] ** (p - 2 - a)
            fields[..., 2 * nm2 + i, 0] = -X[..., 1] * q
            fields[..., 2 * nm2 + i, 1] = X[..., 0] * q
        return fields


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

    def evaluate(self, elems, ref_pts, need_grad=True):
        """(values, gradients, divergences) of the k fields on the elements
        of the int array `elems`; shapes as in FeSpace.eval_basis, with
        the k fields in place of its basis axis."""
        return self.space._evaluate(elems, ref_pts, need_grad,
                                    self.coefficients)


def eval_pointwise(fun, pts):
    """Pointwise callable fun((n, 2) points) applied to (..., 2) points."""
    out = np.asarray(fun(pts.reshape(-1, 2)), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])
