"""Mesh construction, facet topology, curved geometry, and area convergence."""

import numpy as np
import pytest

from gdfem.mesh import (FacetGeometry, Mesh, _unit_normals,
                        make_unit_disc_mesh, make_unit_square_mesh, mesh_size,
                        refine)


def total_area(mesh, order=8):
    """Sum of element areas by quadrature (exercises the geometry maps)."""
    return mesh.element_quadrature(order)[1].sum()


def normal_from_side(fg, mesh, side_index):
    """Outward unit normal of a FacetGeometry recomputed from one owner."""
    e, k, _ = fg.sides[side_index]
    jac = mesh.geometry(e).jacobian(fg.ref_points[side_index])
    return _unit_normals(jac, k)


def longest_element_edge(mesh):
    """The longest vertex-to-vertex edge over the three edges of every
    element."""
    v = mesh.vertices[mesh.triangles]
    return float(np.linalg.norm(v - np.roll(v, -1, axis=1), axis=-1).max())


def test_square_counts_and_area():
    mesh = make_unit_square_mesh(2)
    assert mesh.num_vertices == 9
    assert mesh.num_triangles == 8
    assert mesh.num_facets == 16
    assert abs(total_area(mesh) - 1.0) <= 1e-14
    for n in (1, 2, 5):
        square = make_unit_square_mesh(n)
        assert mesh_size(square) == longest_element_edge(square)


def test_disc_level0_counts():
    mesh = make_unit_disc_mesh(0)
    assert mesh.num_vertices == 7
    assert mesh.num_triangles == 6
    assert mesh.num_facets == 12
    assert int(mesh.facet_boundary.sum()) == 6


def test_refine_multiplies_triangles():
    m0 = make_unit_disc_mesh(0)
    m1 = refine(m0)
    assert m1.num_triangles == 4 * m0.num_triangles
    # boundary midpoints get re-projected onto the circle
    bverts = np.unique(m1.facet_vertices[m1.facet_boundary])
    assert np.allclose(np.linalg.norm(m1.vertices[bverts], axis=1), 1.0,
                       atol=1e-14)
    assert mesh_size(m1) < mesh_size(m0)


def area_slope(geom_order, levels=4):
    errs, hs = [], []
    for lvl in range(levels):
        mesh = make_unit_disc_mesh(lvl, geom_order=geom_order)
        errs.append(abs(total_area(mesh, order=12) - np.pi))
        hs.append(mesh_size(mesh))
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def test_area_convergence_rates():
    """Area error decays at least like h^2 (g=1) / h^{g+1} (g>=2).

    The slope is asserted one-sidedly: on this symmetric mesh family the
    even-degree maps superconverge (the odd error terms of the two halves
    of each arc cancel), so g = 2 measures ~4 instead of 3.
    """
    assert area_slope(1) >= 2.0 - 0.3
    assert area_slope(2) >= 3.0 - 0.3
    assert area_slope(3) >= 4.0 - 0.3


def test_disc_area_value_curved():
    mesh = make_unit_disc_mesh(2, geom_order=3)
    assert abs(total_area(mesh, order=12) - np.pi) <= 2e-5


def test_interior_normal_antisymmetry():
    """n+ = -n- at every facet quadrature point, straight and curved."""
    ts = np.array([0.123, 0.5, 0.871])
    for mesh in (make_unit_square_mesh(2), make_unit_disc_mesh(1, geom_order=2)):
        for f in np.nonzero(~mesh.facet_boundary)[0]:
            fg = FacetGeometry(mesh, [f], ts)
            n1 = normal_from_side(fg, mesh, 1)
            assert np.abs(fg.normals + n1).max() <= 1e-12


def test_boundary_normals_point_outward():
    mesh = make_unit_disc_mesh(1, geom_order=2)
    ts = np.array([0.2, 0.8])
    for f in np.nonzero(mesh.facet_boundary)[0]:
        fg = FacetGeometry(mesh, [f], ts)
        assert np.all(np.einsum("fqc,fqc->fq", fg.normals, fg.points) > 0)


def test_curved_edges_lie_on_circle():
    """The geometry map of a curved element traces the unit circle."""
    mesh = make_unit_disc_mesh(1, geom_order=3)
    ts = np.linspace(0.1, 0.9, 5)
    for f in np.nonzero(mesh.facet_boundary)[0]:
        fg = FacetGeometry(mesh, [f], ts)
        r = np.linalg.norm(fg.points[0], axis=1)
        assert np.abs(r - 1.0).max() <= 2e-3  # interpolation of the arc
    # straight mesh for comparison stays on the chord
    flat = make_unit_disc_mesh(1, geom_order=1)
    f = np.nonzero(flat.facet_boundary)[0][0]
    fg = FacetGeometry(flat, [f], np.array([0.5]))
    assert np.linalg.norm(fg.points[0, 0]) < 1.0 - 1e-3


def test_only_boundary_elements_curved():
    mesh = make_unit_disc_mesh(1, geom_order=2)
    curved = {mesh.facet_elems[f, 0]
              for f in np.nonzero(mesh.facet_boundary)[0]}
    for e in range(mesh.num_triangles):
        assert (not mesh.geometry([e]).affine) == (e in curved)


def test_facet_sides_orientation():
    mesh = make_unit_square_mesh(2)
    for f in range(mesh.num_facets):
        sides = FacetGeometry(mesh, [f], np.array([0.5])).sides
        assert len(sides) == (1 if mesh.facet_boundary[f] else 2)
        for e, k, _ in sides:
            assert mesh.elem_facets[e[0], k[0]] == f


def test_quadrature_geometry_cached_read_only():
    """Quadrature geometry is computed once per order, read-only, and equal
    to a fresh FacetGeometry."""
    mesh = make_unit_disc_mesh(1, geom_order=2)
    rule, wdet, phys = mesh.element_quadrature(6)
    assert mesh.element_quadrature(6)[2] is phys
    for boundary in (False, True):
        srule, fg = mesh.facet_quadrature(6, boundary)
        assert mesh.facet_quadrature(6, boundary)[1] is fg
        facets = np.nonzero(mesh.facet_boundary == boundary)[0]
        fresh = FacetGeometry(mesh, facets, srule.points[:, 0])
        assert np.array_equal(fg.points, fresh.points)
        assert np.array_equal(fg.length, mesh.facet_length(facets))
        for a in (rule.points, wdet, phys, fg.points, fg.normals, fg.dline,
                  *fg.ref_points):
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_orientation_check_rejects_clockwise():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 2, 1]]))


@pytest.mark.parametrize("scale", [2.0, 0.2])
def test_disc_rejects_boundary_off_the_circle(scale):
    """A disc mesh bends its boundary edges onto the unit circle; a boundary
    away from it would give inverted curved elements (scale 2) or a wrong
    area (scale 0.2), so it is refused."""
    square = make_unit_square_mesh(2)
    with pytest.raises(ValueError, match="unit circle"):
        Mesh((square.vertices - 0.5) * scale, square.triangles,
             geom_order=2, domain="disc")


@pytest.mark.parametrize("geom_order", [0, 2.7, "2", True, False])
def test_geom_order_must_be_an_integer(geom_order):
    """A geometry degree that is not an integer >= 1 is refused, not
    truncated: 2.7 would otherwise build a g = 2 mesh, and True a g = 1
    mesh."""
    with pytest.raises(ValueError, match="geom_order"):
        make_unit_disc_mesh(1, geom_order=geom_order)


@pytest.mark.parametrize("bad", [-1, 1.0, 2.5, "1", True, False],
                         ids=["negative", "float", "fraction", "str", "true",
                              "false"])
def test_level_and_grid_size_must_be_integers(bad):
    """A disc level and a square grid size take the integer rule of
    geom_order: True is not the level-1 mesh nor the 1 x 1 grid, and a
    float is a ValueError naming the argument, not a TypeError from
    range or arange."""
    with pytest.raises(ValueError, match="level"):
        make_unit_disc_mesh(bad)
    with pytest.raises(ValueError, match="n must"):
        make_unit_square_mesh(bad)


def _arrays(value):
    """The arrays of a FacetGeometry field, each owner's in turn."""
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays(v)]
    return [value]


@pytest.mark.parametrize("boundary", [False, True],
                         ids=["interior", "boundary"])
def test_facet_geometry_part_equals_a_fresh_one(boundary):
    """A part of a facet set's geometry has every array, those of each
    owner included, bitwise equal to the FacetGeometry built on the
    part's facets alone."""
    mesh = make_unit_disc_mesh(2, geom_order=2)
    rule, fg = mesh.facet_quadrature(6, boundary)
    facets = np.nonzero(mesh.facet_boundary == boundary)[0]
    for s in (slice(0, 7), slice(7, 20), slice(20, None)):
        part, fresh = fg.part(s), FacetGeometry(mesh, facets[s],
                                                   rule.points[:, 0])
        assert vars(part).keys() == vars(fresh).keys()
        assert len(part.sides) == (1 if boundary else 2)
        for name, value in vars(fresh).items():
            got, want = _arrays(getattr(part, name)), _arrays(value)
            assert len(got) == len(want), name
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_disc_meshes_pass_the_circle_check(level):
    """Every element keeps a positive Jacobian, and mesh_size, the largest
    facet chord, is the longest element edge, bit for bit."""
    for g in (1, 2, 3, 4):
        mesh = make_unit_disc_mesh(level, geom_order=g)
        assert np.all(mesh.element_quadrature(8)[1] > 0)
        assert mesh_size(mesh) == longest_element_edge(mesh)


def test_mesh_dump(tmp_path):
    mesh = make_unit_disc_mesh(0, geom_order=2)
    path = tmp_path / "mesh.txt"
    mesh.dump(path)
    lines = path.read_text().splitlines()
    head = lines[0].split()
    assert head[:1] == ["vertices"]
    assert int(head[1]) == mesh.num_vertices
    assert sum(ln.startswith("v ") for ln in lines) == mesh.num_vertices
    assert sum(ln.startswith("t ") for ln in lines) == mesh.num_triangles
    assert sum(ln.startswith("f ") for ln in lines) == mesh.num_facets
