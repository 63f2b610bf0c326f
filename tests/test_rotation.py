"""The hexagon fan's rotation by 60 degrees as an operator-level oracle.

forms.Rotation(space).dofs gives R's dof table on a space: per dof, the
dof R turns it onto (image), its turn in sixths (tau: 0 or 3, a sign, on
the Piola-mapped spaces and scalar Lagrange; 1 on each (u_x, u_y) pair of
vector Lagrange, turned by R) and its pair partner.  Its matrix Q
(linalg._rotation_matrix) is a signed permutation on the Piola-mapped
spaces, a node permutation on scalar Lagrange, and that permutation with
R on each node's (u_x, u_y) on vector Lagrange; M2's pair acts on
(u_h, p_h) by Q_u + Q_p.  The disc mesh and the forms are invariant under
the rotation, so Q A_h Q^T = A_h and Q B_h Q^T = B_h up to round-off,
Q^6 = I (exactly for a signed permutation; to 1e-14 with R, whose entries
are cos and sin of 60 degrees), and R maps the constrained dofs onto
themselves.  A wrong sign at a sector seam, a wrong Piola sign, a curved
map that is not symmetric, or a boundary penalty that differs on one seam
breaks one of these on any mesh level, whatever the manufactured
solutions show.

M3 and M4 are assembled on sector 0 and turned onto the other five
sectors, so their pair commutes with Q by construction, and a term that
differs on one seam's facets is copied to all six seams or to none.  For
them the walk over every element and facet is the oracle too: the sector
walk must equal it to round-off.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gdfem import linalg
from gdfem.cli import DERHAM_METHODS, default_geom_order
from gdfem.fespace import FeSpace, build_space
from gdfem.forms import (METHODS, Rotation, assemble_method,
                         paper_coefficients)
from gdfem.mesh import (FAN_ROTATION, Mesh, make_unit_disc_mesh,
                        make_unit_square_mesh)
from gdfem.problems import convergence_problem

ORACLE_TOL = 1e-13
EVERY_DOF = np.array([], dtype=int)     # constrains no dof


def rotation_matrix(rotation):
    """Q of a Rotation's dof table on every dof of its space."""
    return linalg._rotation_matrix(*rotation.dofs(EVERY_DOF))


def assert_rotation_invariant(method, p, level, geom_order):
    mesh = make_unit_disc_mesh(level, geom_order=geom_order)
    ms = assemble_method(method, mesh, p, paper_coefficients(p), None)
    Q = rotation_matrix(ms.rotation)
    if ms.pressure_space is not None:
        Q = sp.block_diag([Q, rotation_matrix(Rotation(ms.pressure_space))],
                          format="csr")
    I = sp.eye(Q.shape[0], format="csr")
    Q6 = Q @ Q @ Q @ Q @ Q @ Q
    if method in DERHAM_METHODS:
        assert (Q6 != I).nnz == 0
    else:
        assert abs(Q6 - I).max() <= 1e-14
    for M in (ms.a, ms.b):
        assert spla.norm(Q @ M @ Q.T - M) <= ORACLE_TOL * spla.norm(M)
    constrained = ms.velocity_space.constrained_dofs
    image = ms.rotation.dofs(EVERY_DOF)[0][constrained]
    assert np.array_equal(np.sort(image), np.sort(constrained))


@pytest.mark.parametrize("method", DERHAM_METHODS)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("default_g", [False, True])
def test_operators_commute_with_the_rotation(method, p, level, default_g):
    """At geometry order 1 and at the studies' order."""
    assert_rotation_invariant(method, p, level,
                              default_geom_order(p) if default_g else 1)


# (method, p) of the Lagrange methods at degrees 1-4, M2 from degree 2
LAGRANGE_CELLS = [(m, p) for m in METHODS if m not in DERHAM_METHODS
                  for p in (1, 2, 3, 4) if (m, p) != ("M2", 1)]


@pytest.mark.parametrize("method,p", LAGRANGE_CELLS)
@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("default_g", [False, True])
def test_lagrange_operators_commute_with_the_rotation(method, p, level,
                                                      default_g):
    """M1's pair, and M2's on (u_h, p_h), which holds D, M_p, N and G."""
    assert_rotation_invariant(method, p, level,
                              default_geom_order(p) if default_g else 1)


def test_operators_commute_with_the_rotation_at_level_5():
    """A sparse cell far above the dense diagnostics' size."""
    assert_rotation_invariant("M3", 1, 5, default_geom_order(1))


def test_rotation_of_the_square_mesh_raises():
    for n in (1, 3):
        space = build_space("hdiv_bdm", make_unit_square_mesh(n), 1)
        with pytest.raises(ValueError, match="no hexagon-fan symmetry"):
            Rotation(space).dofs(space.constrained_dofs)


def test_rotation_of_a_perturbed_fan_raises():
    """One interior vertex moved by 1e-10 breaks the symmetry."""
    mesh = make_unit_disc_mesh(2)
    vertices = mesh.vertices.copy()
    vertices[0] += 1e-10
    moved = Mesh(vertices, mesh.triangles, domain="disc")
    with pytest.raises(ValueError, match="no hexagon-fan symmetry"):
        moved.rotated_elements()
    assert np.array_equal(mesh.rotated_elements(),
                          np.roll(np.arange(96), -16))


@pytest.mark.parametrize("family", ["scalar_lagrange", "vector_lagrange"])
def test_rotation_of_a_lagrange_space_turns_its_nodes(family):
    """The table takes the value at each vertex to the vertex R turns it
    onto, with tau 1 and its pair partner for a vector, whose Q turns the
    pair by R and is orthogonal; the scalar table's one fixed dof is the
    centre vertex."""
    mesh = make_unit_disc_mesh(1)
    image, tau, partner = Rotation(build_space(family, mesh, 2)).dofs(
        EVERY_DOF)
    turned = mesh.vertices @ FAN_ROTATION.T
    vertex = np.argmin(np.linalg.norm(
        turned[:, None] - mesh.vertices[None], axis=-1), axis=1)
    assert np.abs(mesh.vertices[vertex] - turned).max() <= 1e-14
    d, nv = np.arange(len(image)), len(vertex)
    if family == "scalar_lagrange":
        assert np.array_equal(image[:nv], vertex)
        assert not tau.any() and np.array_equal(partner, d)
        centre = np.argmin(np.linalg.norm(mesh.vertices, axis=1))
        assert np.array_equal(np.flatnonzero(image == d), [centre])
    else:
        assert np.array_equal(image[:2 * nv].reshape(nv, 2),
                              2 * vertex[:, None] + [0, 1])
        assert np.all(tau == 1) and np.array_equal(partner, d ^ 1)
        Q = linalg._rotation_matrix(image, tau, partner)
        assert abs(Q @ Q.T - sp.eye(Q.shape[0])).max() <= 1e-15
        for v, w in enumerate(vertex):
            assert np.array_equal(
                Q[2 * w:2 * w + 2, 2 * v:2 * v + 2].toarray(), FAN_ROTATION)


def test_dof_table_refuses_elements_that_disagree_on_a_sign():
    """A BDM sign flipped on one element at a sector seam: its two owners
    turn the shared dof by different signs."""
    space = build_space("hdiv_bdm", make_unit_disc_mesh(1), 1)
    space._bdm_scale = space._bdm_scale.copy()
    space._bdm_scale[0, 0] *= -1.0
    with pytest.raises(ValueError, match="disagree on the image or sign"):
        Rotation(space).dofs(space.constrained_dofs)


@pytest.mark.parametrize("family", ["hdiv_bdm", "vector_lagrange"])
def test_dof_table_refuses_a_free_dof_turned_onto_a_constrained_one(family):
    """A constrained set that R does not map onto itself: the table on the
    free dofs would index no free dof."""
    space = build_space(family, make_unit_disc_mesh(1), 1)
    rotation = Rotation(space)
    rotation.dofs(space.constrained_dofs)
    with pytest.raises(ValueError, match="turns a free dof onto a "
                                         "constrained one"):
        rotation.dofs(np.array([1]))


@pytest.mark.parametrize("method,calls", [("M1", 0), ("M2", 0), ("M3", 1),
                                          ("M4", 1)])
def test_assembly_reads_the_element_map_once_for_the_walk(monkeypatch,
                                                          method, calls):
    """The Piola methods read R's element map once, for the sector walk;
    the Lagrange methods, which walk every element, do not read it, so a
    solve builds no dof table it does not use."""
    seen = []
    rotated_elements = Mesh.rotated_elements

    def counted(mesh):
        seen.append(mesh)
        return rotated_elements(mesh)

    monkeypatch.setattr(Mesh, "rotated_elements", counted)
    assemble_method(method, make_unit_disc_mesh(1), 2, paper_coefficients(2),
                    None)
    assert len(seen) == calls


# -- the sector walk ----------------------------------------------------------

def full_walk(monkeypatch):
    """Take the hexagon fan's symmetry from every mesh, so that _assemble
    walks every element and facet."""
    def no_symmetry(mesh):
        raise ValueError("no hexagon-fan symmetry")
    monkeypatch.setattr(Mesh, "rotated_elements", no_symmetry)


# (p, level) of the sector-walk cells: p = 1-3 on levels 0-3, p = 1 on 4
WALK_CELLS = [(p, level) for p in (1, 2, 3) for level in (0, 1, 2, 3)] \
    + [(1, 4)]


@pytest.mark.parametrize("method", DERHAM_METHODS)
@pytest.mark.parametrize("p,level", WALK_CELLS)
@pytest.mark.parametrize("default_g", [False, True])
def test_sector_walk_equals_the_full_walk(monkeypatch, method, p, level,
                                          default_g):
    """A_h, B_h and the load of M3 and M4 assembled on sector 0 and one
    facet of each orbit, and turned onto the other sectors, equal those of
    the full walk to 1e-13 of their largest entries, at geometry order 1
    and at the studies' order.  Compared by value: the two may store a
    different number of exact zeros."""
    mesh = make_unit_disc_mesh(level, geom_order=default_geom_order(p)
                               if default_g else 1)
    prob = convergence_problem(p)
    sector = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    full_walk(monkeypatch)
    full = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    for M, R in ((sector.a, full.a), (sector.b, full.b)):
        assert abs(M - R).max() <= ORACLE_TOL * abs(R).max()
    assert (np.abs(sector.load - full.load).max()
            <= ORACLE_TOL * np.abs(full.load).max())


def renumbered_fan():
    fan = make_unit_disc_mesh(2)
    order = np.random.default_rng(5).permutation(fan.num_triangles)
    return Mesh(fan.vertices, fan.triangles[order], domain="disc")


@pytest.mark.parametrize("method", DERHAM_METHODS)
@pytest.mark.parametrize("mesh,share", [
    pytest.param(make_unit_disc_mesh(2), 6, id="fan"),
    pytest.param(make_unit_square_mesh(4), 1, id="square"),
    pytest.param(renumbered_fan(), 1, id="renumbered_fan")])
def test_sector_walk_evaluates_one_sixth(monkeypatch, method, mesh, share):
    """The basis is evaluated on T / share elements and on that share of
    the owner sides of M3's and M4's facet sets: a sixth on the hexagon
    fan, all of them on the unit square and on a renumbered fan, where
    each element and facet is its own orbit."""
    volume, sides = [], []
    eval_basis = FeSpace.eval_basis

    def counted(space, elems, ref_pts):
        (volume if np.ndim(ref_pts) == 2 else sides).append(len(elems))
        return eval_basis(space, elems, ref_pts)

    monkeypatch.setattr(FeSpace, "eval_basis", counted)
    assemble_method(method, mesh, 1, paper_coefficients(1), None)
    interior = np.count_nonzero(~mesh.facet_boundary)
    owner_sides = 2 * interior + (mesh.num_facets - interior
                                  if method == "M4" else 0)
    assert sum(volume) * share == mesh.num_triangles
    assert sum(sides) * share == owner_sides


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_facet_orbits_have_six_facets(level):
    """R maps each facet onto a facet of the same set, and its six powers
    carry every facet through six distinct facets back to itself."""
    mesh = make_unit_disc_mesh(level)
    turned = mesh.rotated_facets()
    assert np.array_equal(mesh.facet_boundary[turned], mesh.facet_boundary)
    orbit = [np.arange(mesh.num_facets)]
    for _ in range(6):
        orbit.append(turned[orbit[-1]])
    assert np.array_equal(orbit[6], orbit[0])
    assert all(len(set(o)) == 6 for o in np.transpose(orbit[:6]))
