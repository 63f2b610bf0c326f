"""Matrix-level equivalence against recorded operator fingerprints.

`data/operator_fingerprints.json` holds, for every (mesh, method, degree)
case below, scalar fingerprints of the assembled operator, its load vector
and the error norms of a seeded discrete field.  A change to the assembly
or evaluation code must reproduce them to round-off.

Regenerate (only when the discretization itself changes on purpose):

    PYTHONPATH=src python3 tests/test_operator_fingerprints.py > \
        tests/data/operator_fingerprints.json
"""

import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gdfem.fespace import DiscreteField
from gdfem.forms import assemble_method, error_norms
from gdfem.mesh import make_unit_disc_mesh, make_unit_square_mesh
from gdfem.problems import convergence_problem

DATA = Path(__file__).resolve().parent / "data" / "operator_fingerprints.json"
TOL = 1e-12

MESHES = {
    "square2": lambda: make_unit_square_mesh(2),
    "disc1_affine": lambda: make_unit_disc_mesh(1, geom_order=1),
    "disc1_curved": lambda: make_unit_disc_mesh(1, geom_order=2),
}
CASES = [(mesh, method, p) for mesh in MESHES for method in
         ("M1", "M2", "M3", "M4") for p in (1, 2, 3)
         if not (method == "M2" and p < 2)]


def case_key(mesh, method, p):
    return f"{mesh}/{method}/p{p}"


def fingerprint(mesh_name, method, p, mesh=None):
    """{quantity: (value, scale)} of one case; agreement is |diff| <= TOL*scale."""
    mesh = MESHES[mesh_name]() if mesh is None else mesh
    prob = convergence_problem(p)
    ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    K, rhs = ms.system.matrix, ms.system.rhs
    rng = np.random.default_rng(zlib.crc32(
        case_key(mesh_name, method, p).encode()))
    x = rng.standard_normal(K.shape[0])
    y = rng.standard_normal(K.shape[0])
    knorm = float(spla.norm(K, "fro"))
    diag = K.diagonal()
    rnorm = float(np.linalg.norm(rhs))
    u = DiscreteField(ms.velocity_space,
                      rng.standard_normal(ms.velocity_space.ndof))
    errs, = error_norms(u, prob, prob.coeffs, method=method,
                        pp_space=ms.pressure_space)
    out = {
        "K_fro": (knorm, knorm),
        "K_trace": (float(diag.sum()), float(np.abs(diag).sum())),
        "yKx": (float(y @ (K @ x)),
                knorm * float(np.linalg.norm(x) * np.linalg.norm(y))),
        "rhs_norm": (rnorm, rnorm),
        "rhs_x": (float(rhs @ x), rnorm * float(np.linalg.norm(x))),
    }
    for name in ("l2_error", "xh_error", "l2_norm"):
        out[name] = (errs[name], abs(errs[name]))
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def meshes():
    return {name: make() for name, make in MESHES.items()}


def test_fingerprint_file_covers_all_cases(recorded):
    assert sorted(recorded) == sorted(case_key(*c) for c in CASES)


@pytest.mark.parametrize("mesh_name,method,p", CASES)
def test_operator_fingerprints(recorded, meshes, mesh_name, method, p):
    ref = recorded[case_key(mesh_name, method, p)]
    got = fingerprint(mesh_name, method, p, mesh=meshes[mesh_name])
    assert sorted(got) == sorted(ref)
    for name, (value, scale) in got.items():
        want = ref[name][0]
        assert abs(value - want) <= TOL * max(scale, ref[name][1]), \
            (name, value, want)


def dump(cases, out):
    """One JSON object, one case per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(cases.items())]
    out.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    dump({case_key(*c): fingerprint(*c) for c in CASES}, sys.stdout)
