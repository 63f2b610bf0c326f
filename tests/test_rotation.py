"""The hexagon fan's rotation by 60 degrees as an operator-level oracle.

forms.rotation_action gives Q, the dof action of the rotation on a
Piola-mapped space.  The disc mesh and the forms are invariant under the
rotation, so Q^6 = I exactly, Q A_h Q^T = A_h and Q B_h Q^T = B_h up to
round-off, and Q maps the constrained dofs onto themselves.  A wrong sign
at a sector seam, a wrong Piola sign or a curved map that is not
symmetric breaks one of these on any mesh level, whatever the
manufactured solutions show.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gdfem.cli import DERHAM_METHODS, default_geom_order
from gdfem.fespace import build_space
from gdfem.forms import assemble_method, paper_coefficients, rotation_action
from gdfem.mesh import Mesh, make_unit_disc_mesh, make_unit_square_mesh

ORACLE_TOL = 1e-13


def assert_rotation_invariant(method, p, level, geom_order):
    mesh = make_unit_disc_mesh(level, geom_order=geom_order)
    ms = assemble_method(method, mesh, p, paper_coefficients(p), None)
    Q = rotation_action(ms.velocity_space)
    n = ms.velocity_space.ndof
    Q6 = Q @ Q @ Q @ Q @ Q @ Q
    assert (Q6 != sp.eye(n, format="csr")).nnz == 0
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
def test_rotation_of_a_lagrange_space_raises(family):
    space = build_space(family, make_unit_disc_mesh(1), 2)
    with pytest.raises(ValueError, match="Piola families"):
        rotation_action(space)
