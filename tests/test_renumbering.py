"""Renumbering invariance of the assembled operators (gather/scatter check).

Reordering the triangles of a mesh renumbers its elements, facets and facet
owners.  The discrete operator only changes by a permutation of its dofs
and, for BDM facet dofs whose owner order flips, by a sign; its Frobenius
norm, trace, sorted diagonal and the norm of the load vector do not change.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gdfem.forms import assemble_method
from gdfem.mesh import Mesh, make_unit_disc_mesh, make_unit_square_mesh
from gdfem.problems import convergence_problem

TOL = 1e-12

MESHES = {
    "square1": make_unit_square_mesh(1),
    "square2": make_unit_square_mesh(2),
    "disc0": make_unit_disc_mesh(0),
    "disc1": make_unit_disc_mesh(1),
}


def invariants(mesh, method, p):
    prob = convergence_problem(p)
    ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    K = ms.system.matrix
    diag = K.diagonal()
    return (np.sqrt((K.multiply(K)).sum()), diag.sum(), np.sort(diag),
            np.linalg.norm(ms.system.rhs))


@st.composite
def renumbered(draw):
    name = draw(st.sampled_from(sorted(MESHES)))
    mesh = MESHES[name]
    nt = mesh.num_triangles
    order = draw(st.permutations(range(nt)))
    return mesh, Mesh(mesh.vertices, mesh.triangles[order], geom_order=1,
                      domain=mesh.domain)


@settings(max_examples=20, deadline=None)
@given(meshes=renumbered(), method=st.sampled_from(["M1", "M2", "M3", "M4"]),
       p=st.integers(1, 2))
def test_operator_invariant_under_renumbering(meshes, method, p):
    if method == "M2":
        p = 2
    base, perm = meshes
    fro0, tr0, diag0, rhs0 = invariants(base, method, p)
    fro1, tr1, diag1, rhs1 = invariants(perm, method, p)
    assert abs(fro1 - fro0) <= TOL * fro0
    assert abs(tr1 - tr0) <= TOL * np.abs(diag0).sum()
    assert np.abs(diag1 - diag0).max() <= TOL * np.abs(diag0).max()
    assert abs(rhs1 - rhs0) <= TOL * rhs0
