"""Simplicial 2D meshes of the unit square and unit disc.

Disc meshes start from a fan of 6 triangles over a regular hexagon
inscribed in the unit circle and are refined uniformly (red refinement)
with new boundary vertices projected radially onto the circle.  For
geometry order g >= 2 the boundary-adjacent elements carry a polynomial
(isoparametric-style) map interpolating the circular arc; interior
elements stay affine.
"""

import numpy as np

from .quadrature import segment_rule, triangle_rule
from .reference import (EDGE_NORMALS, EDGE_VERTICES, REF_VERTICES,
                        lagrange_basis, lattice_multiindices)


class Mesh:
    """Immutable triangle mesh with facet topology and curved boundary data.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    facet_vertices : (nf, 2) int array, each row sorted ascending
    facet_elems : (nf, 2) int array, owner elements (-1 if boundary)
    facet_local : (nf, 2) int array, local edge index within each owner
    facet_boundary : (nf,) bool array
    elem_facets : (nt, 3) int array, facet index of each local edge
    geom_order : int
    domain : "disc", "square" or None
    """

    def __init__(self, vertices, triangles, geom_order=1, domain=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.geom_order = int(geom_order)
        self.domain = domain
        if self.geom_order < 1:
            raise ValueError("geom_order must be >= 1")
        self._check_orientation()
        self._build_facets()
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
        key_to_idx = {}
        fverts, felems, flocal = [], [], []
        for e, tri in enumerate(self.triangles):
            for k, (a, b) in enumerate(EDGE_VERTICES):
                key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
                if key not in key_to_idx:
                    key_to_idx[key] = len(fverts)
                    fverts.append(key)
                    felems.append([e, -1])
                    flocal.append([k, -1])
                else:
                    f = key_to_idx[key]
                    if felems[f][1] != -1:
                        raise ValueError("facet with more than 2 owners")
                    felems[f][1] = e
                    flocal[f][1] = k
        self.facet_vertices = np.array(fverts, dtype=int)
        self.facet_elems = np.array(felems, dtype=int)
        self.facet_local = np.array(flocal, dtype=int)
        self.facet_boundary = self.facet_elems[:, 1] == -1
        self.elem_facets = np.full((len(self.triangles), 3), -1, dtype=int)
        for f, (elems, locs) in enumerate(zip(self.facet_elems, self.facet_local)):
            for e, k in zip(elems, locs):
                if e >= 0:
                    self.elem_facets[e, k] = f

    def _build_curved_data(self):
        """Stack the geometry control points of the curved elements.

        `_curved_controls` holds one (ng, 2) block per curved element and
        `_curved_slot[e]` the block of element e, or -1 when e is affine.
        """
        controls = self._curved_control_points()
        curved = sorted(controls)
        self._curved_slot = np.full(self.num_triangles, -1)
        self._curved_slot[curved] = np.arange(len(curved))
        ng = len(lattice_multiindices(self.geom_order))
        self._curved_controls = np.array(
            [controls[e] for e in curved]).reshape(len(curved), ng, 2)

    def _curved_control_points(self):
        """Degree-g geometry lattice control points per boundary element."""
        controls = {}
        if self.domain != "disc" or self.geom_order < 2:
            return controls
        g = self.geom_order
        mi = lattice_multiindices(g)
        for f in np.nonzero(self.facet_boundary)[0]:
            e = self.facet_elems[f, 0]
            k = self.facet_local[f, 0]
            pts = controls.get(e)
            if pts is None:
                lam = np.array([[a0 / g, a1 / g, a2 / g] for a0, a1, a2 in mi])
                tri = self.triangles[e]
                pts = lam @ self.vertices[tri]  # affine positions
                controls[e] = pts
            va, vb = EDGE_VERTICES[k]
            w0 = self.vertices[self.triangles[e][va]]
            w1 = self.vertices[self.triangles[e][vb]]
            other = 3 - va - vb
            for idx, tri_bary in enumerate(mi):
                lam_o = tri_bary[other] / g
                if lam_o == 1.0:
                    continue
                # parameter along the edge direction va -> vb
                t = tri_bary[vb] / (g - tri_bary[other])
                arc = _arc_point(w0, w1, t)
                chord = (1.0 - t) * w0 + t * w1
                # transfinite blend: full displacement on the edge itself,
                # decaying linearly towards the opposite vertex
                pts[idx] = pts[idx] + (1.0 - lam_o) * (arc - chord)
        return controls

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

    def is_curved(self, elems):
        return self._curved_slot[elems] >= 0

    def geometry(self, elems):
        """GeometryMap of one element (int) or of a batch (int array)."""
        return GeometryMap(self, elems)

    def facet_length(self, facets):
        """Chord length of one facet or of an array of facets."""
        fv = self.facet_vertices[facets]
        d = self.vertices[fv[..., 0]] - self.vertices[fv[..., 1]]
        return np.linalg.norm(d, axis=-1)

    def element_quadrature(self, order):
        """Triangle rule, weights * det (E, q) and points (E, q, 2) of all
        elements; computed once per order, its arrays read-only."""
        key = ("elements", order)
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
        key = ("boundary" if boundary else "interior", order)
        if key not in self._quadrature:
            rule = segment_rule(order)
            facets = np.nonzero(self.facet_boundary == boundary)[0]
            fg = FacetGeometry(self, facets, rule.points[:, 0])
            _read_only(rule.points, rule.weights, fg.ts, fg.points,
                       fg.dline, fg.normals, fg.length, *fg.ref_points,
                       *(a for side in fg.sides for a in side))
            self._quadrature[key] = rule, fg
        return self._quadrature[key]

    def dump(self, path):
        """Plain-text debug dump."""
        with open(path, "w") as fh:
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
    """Point at arc-length fraction t on the short unit-circle arc w0 -> w1."""
    t0 = np.arctan2(w0[1], w0[0])
    t1 = np.arctan2(w1[1], w1[0])
    dt = t1 - t0
    if dt > np.pi:
        dt -= 2.0 * np.pi
    elif dt < -np.pi:
        dt += 2.0 * np.pi
    ang = t0 + dt * t
    return np.array([np.cos(ang), np.sin(ang)])


class GeometryMap:
    """Polynomial map from the reference triangle to one element or a batch.

    `elems` is an int or an int array of E elements.  Reference points are
    (q, 2), shared by every element, or (E, q, 2), one set per element.  For
    an int the results have shapes (q, ...); for an array they gain a
    leading E axis.  Affine elements use their vertex Jacobian; curved ones
    contract the geometry basis with their stacked control points.
    """

    def __init__(self, mesh, elems):
        self._single = np.ndim(elems) == 0
        elems = np.atleast_1d(elems)
        v = mesh.vertices[mesh.triangles[elems]]             # (E, 3, 2)
        self._origin = v[:, 0]
        self._jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        slot = mesh._curved_slot[elems]
        self._curved = np.nonzero(slot >= 0)[0]              # batch positions
        self._controls = mesh._curved_controls[slot[self._curved]]
        self._basis = lagrange_basis(mesh.geom_order)
        self.affine = len(self._curved) == 0

    def _out(self, arr):
        return arr[0] if self._single else arr

    def _curved_table(self, table, ref):
        """Geometry basis table at ref on the C curved elements, (C, q, ..)."""
        if ref.ndim == 2:
            t = table(ref)
            return np.broadcast_to(t, (len(self._curved),) + t.shape)
        r = ref[self._curved]
        t = table(r.reshape(-1, 2))
        return t.reshape(r.shape[:2] + t.shape[1:])

    @staticmethod
    def _ref(ref):
        ref = np.asarray(ref, dtype=float)
        return ref[None] if ref.ndim == 1 else ref

    def points(self, ref):
        ref = self._ref(ref)
        out = self._origin[:, None, :] + ref @ self._jac.transpose(0, 2, 1)
        if not self.affine:
            T = self._curved_table(self._basis.eval, ref)
            out[self._curved] = np.einsum("eqj,ejc->eqc", T, self._controls)
        return self._out(out)

    def jacobian(self, ref):
        ref = self._ref(ref)
        nq = ref.shape[-2]
        out = np.broadcast_to(self._jac[:, None],
                              (len(self._jac), nq, 2, 2)).copy()
        if not self.affine:
            G = self._curved_table(self._basis.grad, ref)
            out[self._curved] = np.einsum("eqjd,ejc->eqcd", G, self._controls)
        return self._out(out)

    def jacobian_derivative(self, ref):
        """d J / d ref, shape (..., q, 2, 2, 2).

        [c, d, e] = d^2 Phi_c / (d_d d_e).
        """
        ref = self._ref(ref)
        out = np.zeros((len(self._jac), ref.shape[-2], 2, 2, 2))
        if not self.affine:
            H = self._curved_table(self._basis.hess, ref)
            out[self._curved] = np.einsum("nqjde,njc->nqcde", H,
                                          self._controls)
        return self._out(out)

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
    """n x n grid of unit-square cells, each split along the (+1,+1) diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    tris = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            tris.append([v00, v10, v11])
            tris.append([v00, v11, v01])
    return Mesh(verts, np.array(tris), geom_order=1, domain="square")


def make_unit_disc_mesh(level: int, geom_order: int = 1) -> Mesh:
    """Hexagon-fan mesh of the unit disc, red-refined `level` times."""
    if level < 0:
        raise ValueError("level must be >= 0")
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
    tris = []
    for e, tri in enumerate(mesh.triangles):
        m = nv + mesh.elem_facets[e]  # midpoints of local edges 0,1,2
        v0, v1, v2 = tri
        tris.extend([[v0, m[0], m[2]],
                     [m[0], v1, m[1]],
                     [m[2], m[1], v2],
                     [m[0], m[1], m[2]]])
    return Mesh(verts, np.array(tris), geom_order=mesh.geom_order,
                domain=mesh.domain)


def mesh_size(mesh: Mesh) -> float:
    """Maximum element diameter over straight vertices."""
    v = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    d01 = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
    d12 = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
    d20 = np.linalg.norm(v[:, 2] - v[:, 0], axis=1)
    return float(np.max([d01, d12, d20]))


def _facet_owner_flips(mesh, facets):
    """(F, 2) bool: owner s walks facet f against its global direction.

    The global direction runs from the lower vertex index to the higher one;
    entries of a missing owner (boundary facets, side 1) are meaningless.
    """
    e = mesh.facet_elems[facets]
    start = np.asarray(EDGE_VERTICES)[mesh.facet_local[facets], 0]
    first = mesh.facet_vertices[facets, 0][..., None]
    return mesh.triangles[e, start] != first


def facet_ref_points(k, ts, flipped):
    """Reference points of local edge k at global facet params ts.

    `k` and `flipped` are scalars, giving (q, 2), or arrays of F facets,
    giving (F, q, 2).
    """
    va, vb = np.asarray(EDGE_VERTICES)[k].T
    s = np.where(np.asarray(flipped)[..., None], 1.0 - ts, ts)
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
    """Physical geometry of one facet or a batch at global params ts in [0, 1].

    `facets` is an int or an int array of F facets.  Provides physical
    points, arc-length weights per unit t (`dline`) and the unit normal
    pointing out of owner 0 (for boundary facets: out of the domain), with
    shapes (q, ...) for an int and (F, q, ...) for an array, and the chord
    `length` of each facet.  `sides[s]` is (elem, local edge, flipped) of
    owner s and `ref_points[s]` its reference points; owner 1 is included
    only when no facet of the batch is a boundary facet.
    """

    def __init__(self, mesh, facets, ts):
        self.ts = np.asarray(ts, dtype=float)
        nsides = 1 if np.any(mesh.facet_boundary[facets]) else 2
        flips = _facet_owner_flips(mesh, facets)
        self.sides = [(mesh.facet_elems[facets][..., s],
                       mesh.facet_local[facets][..., s], flips[..., s])
                      for s in range(nsides)]
        self.ref_points = [facet_ref_points(k, self.ts, fl)
                           for (_, k, fl) in self.sides]
        e0, k0, flip0 = self.sides[0]
        gm = mesh.geometry(e0)
        jac = gm.jacobian(self.ref_points[0])
        self.points = gm.points(self.ref_points[0])
        va, vb = np.asarray(EDGE_VERTICES)[k0].T
        dref = REF_VERTICES[vb] - REF_VERTICES[va]
        dref = np.where(np.asarray(flip0)[..., None], -dref, dref)
        tang = np.einsum("...qcd,...d->...qc", jac, dref)
        self.dline = np.linalg.norm(tang, axis=-1)  # ds/dt
        self.normals = _unit_normals(jac, k0)
        self.length = mesh.facet_length(facets)

    def normal_from_side(self, mesh, side_index):
        """Outward unit normal recomputed from the given owner (for checks)."""
        e, k, _ = self.sides[side_index]
        jac = mesh.geometry(e).jacobian(self.ref_points[side_index])
        return _unit_normals(jac, k)


def total_area(mesh, order=8):
    """Sum of element areas by quadrature (exercises the geometry maps)."""
    return float(mesh.element_quadrature(order)[1].sum())
