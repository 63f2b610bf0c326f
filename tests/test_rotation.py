"""The hexagon fan's rotation by 60 degrees as an operator-level oracle.

forms.rotation_action gives Q, the dof action of the rotation on a space:
a signed permutation on the Piola-mapped spaces, a node permutation on
scalar Lagrange, and that permutation with R on each node's (u_x, u_y)
on vector Lagrange; M2's pair acts on (u_h, p_h) by Q_u + Q_p.  The disc
mesh and the forms are invariant under the rotation, so Q A_h Q^T = A_h
and Q B_h Q^T = B_h up to round-off, Q^6 = I (exactly for a signed
permutation; to 1e-14 with R, whose entries are cos and sin of 60
degrees), and Q maps the constrained dofs onto themselves.  A wrong sign
at a sector seam, a wrong Piola sign, a curved map that is not
symmetric, or a boundary penalty that differs on one seam breaks one of
these on any mesh level, whatever the manufactured solutions show.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gdfem.cli import DERHAM_METHODS, default_geom_order
from gdfem.fespace import build_space
from gdfem.forms import (METHODS, assemble_method, paper_coefficients,
                         rotation_action)
from gdfem.mesh import (FAN_ROTATION, Mesh, make_unit_disc_mesh,
                        make_unit_square_mesh)

ORACLE_TOL = 1e-13


def assert_rotation_invariant(method, p, level, geom_order):
    mesh = make_unit_disc_mesh(level, geom_order=geom_order)
    ms = assemble_method(method, mesh, p, paper_coefficients(p), None)
    Q = rotation_action(ms.velocity_space)
    if ms.pressure_space is not None:
        Q = sp.block_diag([Q, rotation_action(ms.pressure_space)],
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
    image = Q[:, constrained].tocoo().row
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
            rotation_action(space)


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
    """Q is orthogonal and takes the value at each vertex to the vertex R
    turns it onto, turned by R for a vector; the scalar Q is a permutation
    whose one fixed dof is the centre vertex."""
    mesh = make_unit_disc_mesh(1)
    Q = rotation_action(build_space(family, mesh, 2))
    assert abs(Q @ Q.T - sp.eye(Q.shape[0])).max() <= 1e-15
    turned = mesh.vertices @ FAN_ROTATION.T
    image = np.argmin(np.linalg.norm(
        turned[:, None] - mesh.vertices[None], axis=-1), axis=1)
    assert np.abs(mesh.vertices[image] - turned).max() <= 1e-14
    Q = Q.toarray()
    if family == "scalar_lagrange":
        assert np.array_equal(Q[image, np.arange(len(image))],
                              np.ones(len(image)))
        assert set(np.unique(Q)) == {0.0, 1.0}
        centre = np.argmin(np.linalg.norm(mesh.vertices, axis=1))
        assert np.array_equal(np.flatnonzero(np.diag(Q)), [centre])
    else:
        for v, w in enumerate(image):
            assert np.array_equal(Q[2 * w:2 * w + 2, 2 * v:2 * v + 2],
                                  FAN_ROTATION)
