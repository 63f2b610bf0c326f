"""Mesh topology, curved controls and dof maps against loop references.

The mesh and the spaces build their tables with array operations.  The
functions below are the element-by-element loops they replaced, kept as
the reference: every table must come out exactly equal, numbering
included, so every assembled operator stays bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdfem.fespace import FAMILIES, build_space
from gdfem.mesh import Mesh, make_unit_disc_mesh, make_unit_square_mesh, refine
from gdfem.reference import EDGE_VERTICES, lattice_multiindices

TOPOLOGY = ("facet_vertices", "facet_elems", "facet_local", "facet_boundary",
            "elem_facets", "elem_flipped")


def reference_facets(triangles):
    """Facets numbered by first appearance; owner 0 reaches a facet first."""
    key_to_idx = {}
    fverts, felems, flocal = [], [], []
    for e, tri in enumerate(triangles):
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
    facet_vertices = np.array(fverts, dtype=int)
    facet_elems = np.array(felems, dtype=int)
    facet_local = np.array(flocal, dtype=int)
    elem_facets = np.full((len(triangles), 3), -1, dtype=int)
    for f, (elems, locs) in enumerate(zip(facet_elems, facet_local)):
        for e, k in zip(elems, locs):
            if e >= 0:
                elem_facets[e, k] = f
    # owner walks the facet against its low -> high vertex direction
    elem_flipped = np.zeros((len(triangles), 3), dtype=bool)
    for e, tri in enumerate(triangles):
        for k, (va, vb) in enumerate(EDGE_VERTICES):
            elem_flipped[e, k] = \
                tri[va] != facet_vertices[elem_facets[e, k]][0]
    return {"facet_vertices": facet_vertices,
            "facet_elems": facet_elems,
            "facet_local": facet_local,
            "facet_boundary": facet_elems[:, 1] == -1,
            "elem_facets": elem_facets,
            "elem_flipped": elem_flipped}


def reference_arc_point(w0, w1, t):
    t0 = np.arctan2(w0[1], w0[0])
    t1 = np.arctan2(w1[1], w1[0])
    dt = t1 - t0
    if dt > np.pi:
        dt -= 2.0 * np.pi
    elif dt < -np.pi:
        dt += 2.0 * np.pi
    ang = t0 + dt * t
    return np.array([np.cos(ang), np.sin(ang)])


def reference_curved_data(mesh):
    """(_curved_slot, _curved_controls) of a mesh, one boundary facet at a
    time."""
    controls = {}
    g = mesh.geom_order
    mi = lattice_multiindices(g)
    bnd = np.nonzero(mesh.facet_boundary)[0]
    if mesh.domain != "disc" or g < 2:
        bnd = bnd[:0]
    for f in bnd:
        e = mesh.facet_elems[f, 0]
        k = mesh.facet_local[f, 0]
        pts = controls.get(e)
        if pts is None:
            lam = np.array([[a0 / g, a1 / g, a2 / g] for a0, a1, a2 in mi])
            pts = lam @ mesh.vertices[mesh.triangles[e]]
            controls[e] = pts
        va, vb = EDGE_VERTICES[k]
        w0 = mesh.vertices[mesh.triangles[e][va]]
        w1 = mesh.vertices[mesh.triangles[e][vb]]
        other = 3 - va - vb
        for idx, tri_bary in enumerate(mi):
            lam_o = tri_bary[other] / g
            if lam_o == 1.0:
                continue
            t = tri_bary[vb] / (g - tri_bary[other])
            arc = reference_arc_point(w0, w1, t)
            chord = (1.0 - t) * w0 + t * w1
            pts[idx] = pts[idx] + (1.0 - lam_o) * (arc - chord)
    curved = sorted(controls)
    slot = np.full(mesh.num_triangles, -1)
    slot[curved] = np.arange(len(curved))
    stacked = np.array([controls[e] for e in curved]).reshape(
        len(curved), len(mi), 2)
    return slot, stacked


def reference_refine(mesh):
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.facet_vertices[:, 0]]
                  + mesh.vertices[mesh.facet_vertices[:, 1]])
    if mesh.domain == "disc":
        bnd = mesh.facet_boundary
        mids[bnd] /= np.linalg.norm(mids[bnd], axis=1)[:, None]
    tris = []
    for e, tri in enumerate(mesh.triangles):
        m = nv + mesh.elem_facets[e]
        v0, v1, v2 = tri
        tris.extend([[v0, m[0], m[2]], [m[0], v1, m[1]],
                     [m[2], m[1], v2], [m[0], m[1], m[2]]])
    return np.vstack([mesh.vertices, mids]), np.array(tris)


def reference_square(n):
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
    return verts, np.array(tris)


def reference_dof_map(family, mesh, p):
    """(dof_map, ndof, constrained_dofs) of a family on a mesh."""
    nt, nf, nv = mesh.num_triangles, mesh.num_facets, mesh.num_vertices
    none = np.array([], dtype=int)
    if family in ("scalar_lagrange", "vector_lagrange"):
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
        if family == "scalar_lagrange":
            return scal, nsc, none
        vec = np.zeros((nt, 2 * scal.shape[1]), dtype=int)
        vec[:, 0::2] = 2 * scal
        vec[:, 1::2] = 2 * scal + 1
        return vec, 2 * nsc, none
    if family == "vector_dg":
        nloc = (p + 1) * (p + 2)
        return (np.arange(nt)[:, None] * nloc + np.arange(nloc)[None, :],
                nt * nloc, none)
    nint = p * p - 1
    dof = np.zeros((nt, 3 * (p + 1) + nint), dtype=int)
    for e in range(nt):
        for k in range(3):
            f = mesh.elem_facets[e, k]
            dof[e, k * (p + 1):(k + 1) * (p + 1)] = f * (p + 1) + np.arange(p + 1)
        dof[e, 3 * (p + 1):] = nf * (p + 1) + e * nint + np.arange(nint)
    bnd = np.nonzero(mesh.facet_boundary)[0]
    return (dof, nf * (p + 1) + nt * nint,
            (bnd[:, None] * (p + 1) + np.arange(p + 1)[None, :]).ravel())


def assert_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype.kind == b.dtype.kind
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def assert_mesh_matches_reference(mesh):
    ref = reference_facets(mesh.triangles)
    for name in TOPOLOGY:
        assert_equal(getattr(mesh, name), ref[name])
    slot, controls = reference_curved_data(mesh)
    assert_equal(mesh._curved_slot, slot)
    assert_equal(mesh._curved_controls, controls)


def assert_dofs_match_reference(mesh, p_list):
    for family in FAMILIES:
        for p in p_list:
            space = build_space(family, mesh, p)
            dof_map, ndof, constrained = reference_dof_map(family, mesh, p)
            assert_equal(space.dof_map, dof_map)
            assert space.ndof == ndof
            assert_equal(space.constrained_dofs, constrained)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_mesh_matches_reference(n):
    mesh = make_unit_square_mesh(n)
    verts, tris = reference_square(n)
    assert_equal(mesh.vertices, verts)
    assert_equal(mesh.triangles, tris)
    assert_mesh_matches_reference(mesh)
    assert_dofs_match_reference(mesh, (1, 2, 3, 4))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_disc_meshes_match_reference(g):
    """Disc levels 0-3: refinement, topology and curved controls; the dof
    maps of every family at p = 1-4 on each level."""
    mesh = make_unit_disc_mesh(0, geom_order=g)
    for level in range(4):
        if level:
            verts, tris = reference_refine(mesh)
            mesh = refine(mesh)
            assert_equal(mesh.vertices, verts)
            assert_equal(mesh.triangles, tris)
        assert_mesh_matches_reference(mesh)
        assert_dofs_match_reference(mesh, (1, 2, 3, 4))


MESHES = {
    "square1": make_unit_square_mesh(1),
    "square2": make_unit_square_mesh(2),
    "disc0": make_unit_disc_mesh(0),
    "disc1": make_unit_disc_mesh(1),
}


@st.composite
def renumbered(draw):
    """A mesh of MESHES with its triangles permuted, at geometry order 1-3."""
    mesh = MESHES[draw(st.sampled_from(sorted(MESHES)))]
    order = draw(st.permutations(range(mesh.num_triangles)))
    return Mesh(mesh.vertices, mesh.triangles[order],
                geom_order=draw(st.integers(1, 3)), domain=mesh.domain)


@settings(max_examples=20, deadline=None)
@given(mesh=renumbered())
def test_renumbered_meshes_match_reference(mesh):
    assert_mesh_matches_reference(mesh)
    assert_dofs_match_reference(mesh, (1, 2, 3))
