"""Finite element spaces: reference bases, global dof maps, interpolation.

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
interior moments).  Because every element evaluates the *same* global
facet functionals, normal-trace continuity needs no orientation table.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .linalg import assemble_csr, assemble_vector
from .mesh import FacetGeometry, GeometryMap, facet_ref_points
from .quadrature import segment_rule, triangle_rule
from .reference import (EDGE_NORMALS, EDGE_VERTICES, REF_VERTICES,
                        eval_monomial_grads, eval_monomials, lagrange_basis,
                        monomial_exponents, shifted_legendre)

FAMILIES = ("scalar_lagrange", "vector_lagrange", "vector_dg", "hdiv_bdm")


class DegreeError(ValueError):
    pass


def quadrature_order(space):
    """Default exactness order of quadrature on a space: 2p for a product
    of two degree-p fields, 2(g - 1) for the Jacobian factors of a degree-g
    geometry map, plus 2."""
    return 2 * space.degree + 2 * (space.mesh.geom_order - 1) + 2


def build_space(family, mesh, p):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if p < 1:
        raise DegreeError("degree must be >= 1")
    return FeSpace(family, mesh, p)


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
        p = self.degree
        mesh = self.mesh
        nt, nf, nv = mesh.num_triangles, mesh.num_facets, mesh.num_vertices
        if self.family in ("scalar_lagrange", "vector_lagrange"):
            nint = (p - 1) * (p - 2) // 2
            scal = np.zeros((nt, 3 + 3 * (p - 1) + nint), dtype=int)
            for e, tri in enumerate(mesh.triangles):
                scal[e, :3] = tri
                for k, (va, vb) in enumerate(EDGE_VERTICES):
                    f = mesh.elem_facets[e, k]
                    flipped = tri[va] != mesh.facet_vertices[f][0]
                    for s in range(1, p):
                        pos = (p - 1 - s) if flipped else (s - 1)
                        scal[e, 3 + k * (p - 1) + s - 1] = nv + f * (p - 1) + pos
                base = nv + nf * (p - 1) + e * nint
                scal[e, 3 + 3 * (p - 1):] = base + np.arange(nint)
            nsc = nv + nf * (p - 1) + nt * nint
            if self.family == "scalar_lagrange":
                self.dof_map = scal
                self.ndof = nsc
            else:
                nloc = scal.shape[1]
                vec = np.zeros((nt, 2 * nloc), dtype=int)
                vec[:, 0::2] = 2 * scal
                vec[:, 1::2] = 2 * scal + 1
                self.dof_map = vec
                self.ndof = 2 * nsc
            self.constrained_dofs = np.array([], dtype=int)
        elif self.family == "vector_dg":
            nloc = (p + 1) * (p + 2)
            self.dof_map = (np.arange(nt)[:, None] * nloc
                            + np.arange(nloc)[None, :])
            self.ndof = nt * nloc
            self.constrained_dofs = np.array([], dtype=int)
        else:  # hdiv_bdm
            nint = p * p - 1
            nloc = 3 * (p + 1) + nint
            dof = np.zeros((nt, nloc), dtype=int)
            for e in range(nt):
                for k in range(3):
                    f = mesh.elem_facets[e, k]
                    dof[e, k * (p + 1):(k + 1) * (p + 1)] = \
                        f * (p + 1) + np.arange(p + 1)
                base = nf * (p + 1) + e * nint
                dof[e, 3 * (p + 1):] = base + np.arange(nint)
            self.dof_map = dof
            self.ndof = nf * (p + 1) + nt * nint
            bnd = np.nonzero(mesh.facet_boundary)[0]
            self.constrained_dofs = (bnd[:, None] * (p + 1)
                                     + np.arange(p + 1)[None, :]).ravel()

    # -- basis evaluation ---------------------------------------------------

    def eval_basis(self, elems, ref_pts, need_grad=True):
        """Physical basis values on one element (int) or a batch (int array).

        `ref_pts` is (q, 2), shared by every element, or (E, q, 2), one set
        per element.  Returns (values, gradients, divergences):
        scalar family: (q, nloc), (q, nloc, 2), None;
        vector families: (q, nloc, 2), (q, nloc, 2, 2) with
        grad[c, d] = d u_c / d x_d, and (q, nloc).
        For an element array every shape gains a leading E axis.
        """
        return self._evaluate(elems, ref_pts, need_grad)

    def _evaluate(self, elems, ref_pts, need_grad, coefficients=None):
        """eval_basis, or with a coefficient vector the field it spans.

        The coefficients are applied on the reference element, before the
        (linear) map to the physical elements, so a field evaluation never
        forms arrays with a basis axis.
        """
        single = np.ndim(elems) == 0
        elems = np.atleast_1d(elems)
        ref = np.asarray(ref_pts, dtype=float)
        if ref.ndim == 1:
            ref = ref[None]
        u, g = self._reference_shapes(elems, ref, coefficients)
        out = self._map(elems, ref, u, g, need_grad)
        if coefficients is not None:
            out = tuple(None if a is None else a[:, :, 0] for a in out)
        return tuple(a[0] if single and a is not None else a for a in out)

    def _reference_shapes(self, elems, ref, coefficients):
        """Local shapes on the reference element and their reference gradients.

        Shapes are the nodal Lagrange basis (as x/y copies for vectors) or
        the local BDM bases C[e] over x/y copies of the monomials.  Values
        are (..., q, n) or (..., q, n, 2), gradients have one more trailing
        axis; with coefficients n = 1, the field they span.
        """
        if self.family == "hdiv_bdm":
            exps = monomial_exponents(self.degree)
            u = _ref_table(lambda x: eval_monomials(exps, x), ref)
            g = _ref_table(lambda x: eval_monomial_grads(exps, x), ref)
        else:
            basis = lagrange_basis(self.degree)
            u, g = _ref_table(basis.eval, ref), _ref_table(basis.grad, ref)
        if self.ncomp == 2:
            u, g = _xy_copies(u, g)
        W = None if coefficients is None \
            else coefficients[self.dof_map[elems]][:, :, None]
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
        (dP u + P g) J^-1, where dP = dP / d ref.
        """
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
        dJ = gm.jacobian_derivative(ref)                      # zero if affine
        # d det / d ref_e = det * tr(J^-1 dJ/dref_e)
        ddet = det[..., None] * np.einsum("...ij,...jie->...e", jinv, dJ)
        dP = (dJ / det[..., None, None, None]
              - jac[..., None] * ddet[..., None, None, :]
              / (det ** 2)[..., None, None, None])
        # contract the per-point geometric factors with J^-1 first, so the
        # only arrays with a basis axis are the two terms of the result
        grads = np.einsum("...qckd,...qik->...qicd", np.einsum(
            "...qcke,...qed->...qckd", dP, jinv), u, optimize=True)
        grads += np.einsum("...qcked,...qike->...qicd", np.einsum(
            "...qck,...qed->...qcked", P, jinv), g, optimize=True)
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
        starts = np.asarray(EDGE_VERTICES)[:, 0]
        flipped = mesh.triangles[:, starts] != mesh.facet_vertices[facets, 0]
        chord = mesh.facet_length(facets)
        for k, (va, vb) in enumerate(EDGE_VERTICES):
            ell = np.linalg.norm(REF_VERTICES[vb] - REF_VERTICES[va])
            rp = facet_ref_points(k, ts, flipped[:, k])
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
            shp, _ = _xy_copies(eval_monomials(exps, vrule.points),
                                eval_monomial_grads(exps, vrule.points))
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


def _xy_copies(sval, sgrad):
    """x/y copies of scalar shapes as vector fields, interleaved.

    Values (..., q, nm) and gradients (..., q, nm, 2) give vector values
    (..., q, 2 nm, 2) and gradients (..., q, 2 nm, 2, 2), [c, d] = d u_c / d_d.
    """
    nm = sval.shape[-1]
    u = np.zeros(sval.shape[:-1] + (2 * nm, 2))
    g = np.zeros(sval.shape[:-1] + (2 * nm, 2, 2))
    for c in range(2):
        u[..., c::2, c] = sval
        g[..., c::2, c, :] = sgrad
    return u, g


class DiscreteField:
    """A coefficient vector in an FeSpace, evaluable element-wise."""

    def __init__(self, space, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (space.ndof,):
            raise ValueError("coefficient length does not match ndof")
        self.space = space
        self.coefficients = coefficients

    def evaluate(self, elems, ref_pts, need_grad=True):
        """(values, gradients, divergences) of the field on one element or a
        batch; shapes as in FeSpace.eval_basis without the basis axis."""
        return self.space._evaluate(elems, ref_pts, need_grad,
                                    self.coefficients)


def eval_pointwise(fun, pts):
    """Pointwise callable fun((n, 2) points) applied to (..., 2) points."""
    out = np.asarray(fun(pts.reshape(-1, 2)), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def bdm_interpolate(space, v, order=None):
    """Element-wise BDM interpolation of a smooth vector field.

    Matches facet moments of v.n against P^p on each facet and interior
    moments against the reduced rotational set (empty for p = 1).  `order`
    raises the quadrature order used for the moments of a non-polynomial v.
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
        det = GeometryMap.dets(gm.jacobian(vrule.points))
        phys = gm.points(vrule.points)
        wm = space._interior_moment_fields(elems, phys)
        wq = vrule.weights * det / (det @ vrule.weights)[:, None]
        moms = np.einsum("eq,eqd,eqmd->em", wq, eval_pointwise(v, phys), wm,
                         optimize=True)
        coeffs[mesh.num_facets * (p + 1):] = moms.ravel()
    return DiscreteField(space, coeffs)


def l2_project(space, f, weight=None, order=None):
    """Weighted L2 projection of f onto the space.

    Solves <w u_h, q_h> = <w f, q_h> for all q_h; w defaults to 1.
    """
    mesh = space.mesh
    order = quadrature_order(space) if order is None else order
    rule, wdet, phys = mesh.element_quadrature(order)
    wq = wdet if weight is None else wdet * eval_pointwise(weight, phys)
    elems = np.arange(mesh.num_triangles)
    bv, _, _ = space.eval_basis(elems, rule.points, need_grad=False)
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
