"""Simplicial 2D meshes of the unit square and unit disc.

Disc meshes start from a fan of 6 triangles over a regular hexagon
inscribed in the unit circle and are refined uniformly (red refinement)
with new boundary vertices projected radially onto the circle.  For
geometry order g >= 2 the boundary-adjacent elements carry a polynomial
(isoparametric-style) map interpolating the circular arc; interior
elements stay affine.
"""

import copy

import numpy as np

from .quadrature import check_integer, check_order, segment_rule, triangle_rule
from .reference import (EDGE_NORMALS, EDGE_VERTICES, REF_VERTICES,
                        lagrange_basis, lattice_multiindices)


class Mesh:
    """Immutable triangle mesh with facet topology and curved boundary data.

    Facets are numbered by first appearance over the (element, local edge)
    pairs in element-major order; owner 0 of a facet is the first element to
    reach it, and its normal points out of owner 0.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    facet_vertices : (nf, 2) int array, each row sorted ascending
    facet_elems : (nf, 2) int array, owner elements (-1 if boundary)
    facet_local : (nf, 2) int array, local edge index within each owner
    facet_boundary : (nf,) bool array
    elem_facets : (nt, 3) int array, facet index of each local edge
    elem_flipped : (nt, 3) bool array, local edge k of e runs from its higher
        vertex index to its lower one, against the facet's direction
    geom_order : int
    domain : "disc", "square" or None
    """

    def __init__(self, vertices, triangles, geom_order=1, domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.geom_order = check_integer("geom_order", geom_order, 1)
        self.domain = domain
        self._check_orientation()
        self._build_facets()
        self._check_disc_boundary()
        self._build_curved_data()
        self._quadrature = {}   # (kind, order) -> quadrature geometry

    # -- construction ---------------------------------------------------

    def _check_orientation(self):
        v = self.vertices
        t = self.triangles
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            raise ValueError("all triangles must be counterclockwise")

    def _build_facets(self):
        nt = self.num_triangles
        ends = self.triangles[:, EDGE_VERTICES]                 # (E, 3, 2)
        self.elem_flipped = ends[..., 0] > ends[..., 1]
        keys, first, inverse, counts = np.unique(
            np.sort(ends, axis=-1).reshape(-1, 2), axis=0, return_index=True,
            return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            raise ValueError("facet with more than 2 owners")
        order = np.argsort(first)                 # by first appearance
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        facet = rank[inverse.ravel()]             # facet of each (e, k) pair
        pair0 = first[order]
        pair1 = np.full(len(order), -1)
        second = np.arange(3 * nt) != pair0[facet]
        pair1[facet[second]] = np.nonzero(second)[0]
        pairs = np.stack([pair0, pair1], axis=1)
        self.facet_vertices = keys[order]
        self.facet_elems = np.where(pairs >= 0, pairs // 3, -1)
        self.facet_local = np.where(pairs >= 0, pairs % 3, -1)
        self.facet_boundary = pair1 == -1
        self.elem_facets = facet.reshape(nt, 3)

    def _check_disc_boundary(self):
        """Disc boundary edges are bent onto the unit circle, and refinement
        projects boundary midpoints onto it, so the boundary vertices must lie
        on it.  Vertices from cos/sin or from a normalised midpoint sit within
        a few ulps (~1e-16) of radius 1; the bound allows round-off in
        vertices computed elsewhere and rejects any misplacement that would
        distort the curved elements."""
        if self.domain != "disc":
            return
        bverts = self.facet_vertices[self.facet_boundary]
        radius = np.linalg.norm(self.vertices[bverts], axis=-1)
        if np.any(np.abs(radius - 1.0) > 1e-12):
            raise ValueError("boundary vertices of a disc mesh must lie on "
                             "the unit circle")

    def _build_curved_data(self):
        """Stack the geometry control points of the curved elements.

        Disc elements with a boundary edge carry the degree-g lattice of
        their affine map, each edge point moved onto the arc and the move
        blended linearly to zero at the opposite vertex.  `_curved_controls`
        holds one (ng, 2) block per curved element and `_curved_slot[e]` the
        block of element e, or -1 when e is affine.
        """
        g = self.geom_order
        mi = np.array(lattice_multiindices(g))
        bnd = np.nonzero(self.facet_boundary)[0]
        if self.domain != "disc" or g < 2:
            bnd = bnd[:0]
        elem = self.facet_elems[bnd, 0]
        curved = np.unique(elem)
        self._curved_slot = np.full(self.num_triangles, -1)
        self._curved_slot[curved] = np.arange(len(curved))
        pts = (mi / g) @ self.vertices[self.triangles[curved]]   # affine
        # every (boundary facet, lattice point off the opposite vertex)
        va, vb = np.asarray(EDGE_VERTICES)[self.facet_local[bnd, 0]].T
        other = mi[:, 3 - va - vb].T                          # (B, ng)
        b, idx = np.nonzero(other < g)
        w0 = self.vertices[self.triangles[elem[b], va[b]]]
        w1 = self.vertices[self.triangles[elem[b], vb[b]]]
        # parameter along the edge direction va -> vb
        t = mi[idx, vb[b]] / (g - other[b, idx])
        chord = (1.0 - t)[:, None] * w0 + t[:, None] * w1
        move = ((1.0 - other[b, idx] / g)[:, None]
                * (_arc_point(w0, w1, t) - chord))
        np.add.at(pts, (self._curved_slot[elem[b]], idx), move)
        self._curved_controls = pts

    # -- queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_facets(self):
        return len(self.facet_vertices)

    def geometry(self, elems):
        """GeometryMap of the elements of the int array `elems`."""
        return GeometryMap(self, elems)

    def facet_length(self, facets):
        """Chord length of one facet or of an array of facets."""
        fv = self.facet_vertices[facets]
        d = self.vertices[fv[..., 0]] - self.vertices[fv[..., 1]]
        return np.linalg.norm(d, axis=-1)

    def element_quadrature(self, order):
        """Triangle rule, weights * det (E, q) and points (E, q, 2) of all
        elements; computed once per order, its arrays read-only."""
        key = ("elements", check_order(order))
        if key not in self._quadrature:
            rule = triangle_rule(order)
            gm = self.geometry(np.arange(self.num_triangles))
            det = GeometryMap.dets(gm.jacobian(rule.points))
            wdet, phys = rule.weights * det, gm.points(rule.points)
            _read_only(rule.points, rule.weights, wdet, phys)
            self._quadrature[key] = rule, wdet, phys
        return self._quadrature[key]

    def facet_quadrature(self, order, boundary):
        """Segment rule and FacetGeometry at its points of the boundary (or
        the interior) facets; computed once per order, arrays read-only."""
        key = ("boundary" if boundary else "interior", check_order(order))
        if key not in self._quadrature:
            rule = segment_rule(order)
            facets = np.nonzero(self.facet_boundary == boundary)[0]
            fg = FacetGeometry(self, facets, rule.points[:, 0])
            _read_only(rule.points, rule.weights)
            _apply(_read_only, list(vars(fg).values()))
            self._quadrature[key] = rule, fg
        return self._quadrature[key]

    def dump(self, path):
        """Plain-text debug dump."""
        with open(path, "w", newline="\n") as fh:
            fh.write("vertices %d triangles %d facets %d geom_order %d\n"
                     % (self.num_vertices, self.num_triangles,
                        self.num_facets, self.geom_order))
            for v in self.vertices:
                fh.write("v %.17g %.17g\n" % (v[0], v[1]))
            for t in self.triangles:
                fh.write("t %d %d %d\n" % tuple(t))
            for f in range(self.num_facets):
                a, b = self.facet_vertices[f]
                e0, e1 = self.facet_elems[f]
                fh.write("f %d %d %d %d %d\n"
                         % (a, b, e0, e1, int(self.facet_boundary[f])))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _arc_point(w0, w1, t):
    """Points at arc-length fractions t (N,) on the short unit-circle arcs
    w0 -> w1, (N, 2)."""
    t0 = np.arctan2(w0[:, 1], w0[:, 0])
    dt = np.arctan2(w1[:, 1], w1[:, 0]) - t0
    dt = np.where(dt > np.pi, dt - 2.0 * np.pi,
                  np.where(dt < -np.pi, dt + 2.0 * np.pi, dt))
    ang = t0 + dt * t
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


class GeometryMap:
    """Polynomial map from the reference triangle to a batch of elements.

    `elems` is an int array of E elements.  Reference points are (q, 2),
    shared by every element, or (E, q, 2), one set per element; results
    have shapes (E, q, ...).  Affine elements use their vertex Jacobian;
    curved ones contract the geometry basis with their stacked control
    points.  `curved` holds the batch positions of the curved elements.
    """

    def __init__(self, mesh, elems):
        if np.ndim(elems) != 1:
            raise ValueError(f"elems must be a 1-D int array, got {elems!r}")
        v = mesh.vertices[mesh.triangles[elems]]             # (E, 3, 2)
        self._origin = v[:, 0]
        self._jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        slot = mesh._curved_slot[elems]
        self.curved = np.nonzero(slot >= 0)[0]               # batch positions
        self._controls = mesh._curved_controls[slot[self.curved]]
        self._basis = lagrange_basis(mesh.geom_order)
        self.affine = len(self.curved) == 0

    def _curved_table(self, table, ref):
        """Geometry basis table at ref on the C curved elements, (C, q, ..)."""
        if ref.ndim == 2:
            t = table(ref)
            return np.broadcast_to(t, (len(self.curved),) + t.shape)
        r = ref[self.curved]
        t = table(r.reshape(-1, 2))
        return t.reshape(r.shape[:2] + t.shape[1:])

    def points(self, ref):
        out = self._origin[:, None, :] + ref @ self._jac.transpose(0, 2, 1)
        if not self.affine:
            T = self._curved_table(self._basis.eval, ref)
            out[self.curved] = np.einsum("eqj,ejc->eqc", T, self._controls)
        return out

    def jacobian(self, ref):
        nq = ref.shape[-2]
        out = np.broadcast_to(self._jac[:, None],
                              (len(self._jac), nq, 2, 2)).copy()
        if not self.affine:
            G = self._curved_table(self._basis.grad, ref)
            out[self.curved] = np.einsum("eqjd,ejc->eqcd", G, self._controls)
        return out

    def curved_jacobian_derivative(self, ref):
        """d J / d ref on the curved elements of the batch, (C, q, 2, 2, 2)
        in the order of `curved`; it is zero on affine elements.

        [c, d, e] = d^2 Phi_c / (d_d d_e).
        """
        H = self._curved_table(self._basis.hess, ref)
        return np.einsum("nqjde,njc->nqcde", H, self._controls)

    @staticmethod
    def dets(jac):
        return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]

    @staticmethod
    def inv(jac):
        det = GeometryMap.dets(jac)[..., None, None]
        out = np.empty_like(jac)
        out[..., 0, 0] = jac[..., 1, 1]
        out[..., 0, 1] = -jac[..., 0, 1]
        out[..., 1, 0] = -jac[..., 1, 0]
        out[..., 1, 1] = jac[..., 0, 0]
        return out / det


def make_unit_square_mesh(n: int) -> Mesh:
    """n x n grid of unit-square cells, each split along the (+1,+1) diagonal;
    ValueError unless n is an integer >= 1."""
    n = check_integer("n", n, 1)
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v11 = v00 + n + 2
    tris = np.stack([v00, v00 + 1, v11, v00, v11, v00 + n + 1], axis=1)
    return Mesh(verts, tris.reshape(-1, 3), geom_order=1, domain="square")


def make_unit_disc_mesh(level: int, geom_order: int = 1) -> Mesh:
    """Hexagon-fan mesh of the unit disc, red-refined `level` times;
    ValueError unless level is an integer >= 0."""
    level = check_integer("level", level, 0)
    ang = np.pi / 3.0 * np.arange(6)
    verts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    tris = np.array([[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)])
    mesh = Mesh(verts, tris, geom_order=geom_order, domain="disc")
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """One uniform red refinement; disc boundary vertices re-projected."""
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.facet_vertices[:, 0]]
                  + mesh.vertices[mesh.facet_vertices[:, 1]])
    if mesh.domain == "disc":
        bnd = mesh.facet_boundary
        mids[bnd] /= np.linalg.norm(mids[bnd], axis=1)[:, None]
    verts = np.vstack([mesh.vertices, mids])
    # nodes 0-2: the vertices, 3-5: the midpoints of local edges 0-2
    nodes = np.hstack([mesh.triangles, nv + mesh.elem_facets])
    children = nodes[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]]
    return Mesh(verts, children.reshape(-1, 3), geom_order=mesh.geom_order,
                domain=mesh.domain)


def mesh_size(mesh: Mesh) -> float:
    """Maximum element diameter over straight vertices: the largest facet
    chord."""
    return float(mesh.facet_length(np.arange(mesh.num_facets)).max())


def facet_ref_points(k, ts, flipped):
    """Reference points of local edge k at global facet params ts.

    `k` is one local edge or an array of F, and `flipped` an array of F
    flags; the points are (F, q, 2).
    """
    va, vb = np.asarray(EDGE_VERTICES)[k].T
    s = np.where(flipped[:, None], 1.0 - ts, ts)
    a = REF_VERTICES[va]
    d = REF_VERTICES[vb] - a
    return a[..., None, :] + s[..., None] * d[..., None, :]


def _unit_normals(jac, k):
    """Unit outward normals of local edge k mapped by jac: cof(J) n_ref."""
    nref = EDGE_NORMALS[k][..., None, :]
    n0, n1 = nref[..., 0], nref[..., 1]
    nn = np.stack([jac[..., 1, 1] * n0 - jac[..., 1, 0] * n1,
                   jac[..., 0, 0] * n1 - jac[..., 0, 1] * n0], axis=-1)
    return nn / np.linalg.norm(nn, axis=-1)[..., None]


class FacetGeometry:
    """Physical geometry of a batch of facets at global params ts in [0, 1].

    `facets` is an int array of F facets and `ts` the (q,) params.
    Provides physical points, arc-length weights per unit t (`dline`) and
    the unit normal pointing out of owner 0 (for boundary facets: out of
    the domain), with shapes (F, q, ...), and the chord `length` of each
    facet.  `sides[s]` is (elem, local edge, flipped) of owner s, each
    (F,), and `ref_points[s]` its reference points (F, q, 2); owner 1 is
    included only when no facet of the batch is a boundary facet.
    """

    def __init__(self, mesh, facets, ts):
        ts = np.asarray(ts, dtype=float)
        nsides = 1 if np.any(mesh.facet_boundary[facets]) else 2
        elems, local = mesh.facet_elems[facets], mesh.facet_local[facets]
        self.sides = [(elems[:, s], local[:, s],
                       mesh.elem_flipped[elems[:, s], local[:, s]])
                      for s in range(nsides)]
        self.ref_points = [facet_ref_points(k, ts, fl)
                           for (_, k, fl) in self.sides]
        e0, k0, flip0 = self.sides[0]
        gm = mesh.geometry(e0)
        jac = gm.jacobian(self.ref_points[0])
        self.points = gm.points(self.ref_points[0])
        va, vb = np.asarray(EDGE_VERTICES)[k0].T
        dref = REF_VERTICES[vb] - REF_VERTICES[va]
        dref = np.where(flip0[:, None], -dref, dref)
        tang = np.einsum("fqcd,fd->fqc", jac, dref)
        self.dline = np.linalg.norm(tang, axis=-1)  # ds/dt
        self.normals = _unit_normals(jac, k0)
        self.length = mesh.facet_length(facets)

    def part(self, facets):
        """This batch's geometry on the slice `facets` of its facets, as
        FacetGeometry builds it for those facets: every field has a leading
        facet axis (per owner in `sides` and `ref_points`) and is sliced
        along it."""
        part = copy.copy(self)
        for name, value in vars(self).items():
            setattr(part, name, _apply(lambda a: a[facets], value))
        return part


def _apply(fn, value):
    """fn(value) of an array; of a list or tuple, _apply of each entry."""
    if isinstance(value, (list, tuple)):
        return type(value)(_apply(fn, v) for v in value)
    return fn(value)
