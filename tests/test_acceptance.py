"""End-to-end acceptance checks of the study harness.

Each test pins one headline property of the four discretizations:

1. h-convergence rates of the two divergence-conforming-in-spirit methods
   (M3, M4) at p = 1, 2, 3 and of M1 at p = 4.
2. Volume locking: M3/M4 insensitive to the sound speed, M1 degraded.
3. Gradient-robustness: M3/M4 mesh-independent response to gradient
   forcing, M2 mesh-dependent.
4. Stability diagnostics: the grad-div form controls the streamline form
   on the complement of its kernel with constant > 1.
5. Gradient orthogonality of discretely divergence-free fields.
6. The study fixtures reproduce the committed demos/output CSVs.
7. Cross-cutting property suites (exactness, symmetry, positivity,
   interpolation identities, FD gates, CSV round trip) live in the other
   test files; a compact re-check is included here.

Error magnitudes depend on the mesh family, so rates and qualitative
contrasts are asserted, not absolute values.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (check_symmetry, load_vector, manufactured_defect,
                      read_study_csv, series)
from gdfem.cli import (STUDIES, emit_study_csv, fit_slope, run_diagnostics,
                       run_solve)
from gdfem.forms import assemble_method, paper_coefficients
from gdfem.linalg import dense_nullspace, restrict_free
from gdfem.mesh import GeometryMap, make_unit_square_mesh
from gdfem.problems import (convergence_problem, gradient_potential_grad,
                            locking_problem)
from gdfem.quadrature import triangle_rule


# -- 1. convergence rates -----------------------------------------------------

@pytest.mark.parametrize("method", ["M3", "M4"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_convergence_rates_m3_m4(convergence_report, method, p):
    hs, errs = series(convergence_report, method,
                      STUDIES["convergence"].columns[method], p=p)
    assert len(hs) >= 3
    slope = fit_slope(hs, errs)
    assert slope >= p + 0.2, f"{method} p={p}: slope {slope:.2f}"
    assert slope <= p + 1.3, f"{method} p={p}: slope {slope:.2f}"


def test_convergence_rate_m1_p4(convergence_m1p4_report):
    hs, errs = series(convergence_m1p4_report, "M1", "errorH1", p=4)
    assert len(hs) >= 3
    assert fit_slope(hs, errs) >= 4.2


def test_triple_norm_errors_recorded():
    """The discrete energy-norm error that a solve reports converges with a
    positive rate: M3 at p = 2 on levels 2, 3 and 4."""
    runs = [run_solve("M3", level, p=2) for level in (2, 3, 4)]
    assert fit_slope([r["h"] for r in runs],
                     [r["xh_error"] for r in runs]) >= 1.0


# -- 2. volume locking --------------------------------------------------------

def test_locking_free_methods(locking_report):
    for method in ("M3", "M4"):
        col = STUDIES["convergence"].columns[method]
        hs1, e1 = series(locking_report, method, col, cs2=1.0)
        hs2, e2 = series(locking_report, method, col, cs2=1000.0)
        assert np.allclose(hs1, hs2)
        assert np.all(e2 / e1 <= 2.0), f"{method}: ratios {e2 / e1}"


def test_locking_sensitivity_m1(locking_report):
    _, e1 = series(locking_report, "M1", "errorH1", cs2=1.0)
    _, e2 = series(locking_report, "M1", "errorH1", cs2=1000.0)
    assert e2[-1] / e1[-1] >= 10.0


# -- 3. gradient robustness ---------------------------------------------------

def test_gradient_robust_methods(gradrob_report):
    for method in ("M3", "M4"):
        col = STUDIES["gradrob"].columns[method]
        for cs2 in (1.0, 10.0, 100.0, 1000.0):
            _, norms = series(gradrob_report, method, col, cs2=cs2)
            assert len(norms) >= 3
            spread = (norms.max() - norms.min()) / norms.max()
            assert spread <= 0.2, f"{method} cs2={cs2}: spread {spread:.3f}"
        finest = [series(gradrob_report, method, col, cs2=c)[1][-1]
                  for c in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(finest, finest[1:]))


def test_gradient_sensitivity_m2(gradrob_report):
    _, norms = series(gradrob_report, "M2", "normH1pp", cs2=1000.0)
    rel_changes = np.abs(np.diff(norms)) / norms[:-1]
    assert np.all(rel_changes > 0.5), f"changes {rel_changes}"


# -- 4. stability diagnostics -------------------------------------------------

@pytest.mark.parametrize("method", ["M3", "M4"])
@pytest.mark.parametrize("p", [1, 2])
def test_control_constant_exceeds_one(method, p):
    for level in (0, 1, 2):
        res = run_diagnostics(method, level, p)
        assert res["c_bh"] > 1.0, \
            f"{method} level={level} p={p}: c_bh={res['c_bh']:.3f}"
        assert 0.0 < res["c_hat"] < 1.0
        assert res["kernel_dim"] > 0


# -- 5. gradient orthogonality ------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("method", ["M3", "M4"])
def test_kernel_fields_orthogonal_to_gradients(n, method):
    """Every discretely divergence-free field is L2-orthogonal to grad phi.

    phi = x^6 + y^6; <grad phi, v> = -<phi, div v> + bnd(phi v.n) vanishes
    when div v = 0 element-wise, normal jumps vanish and v.n = 0 on the
    boundary -- exactly what the kernel of b_h encodes.
    """
    mesh = make_unit_square_mesh(n)
    p = 1
    ms = assemble_method(method, mesh, p, paper_coefficients(p), None)
    space, B = ms.velocity_space, ms.b
    constrained = space.constrained_dofs
    free = np.setdiff1d(np.arange(space.ndof), constrained)
    V = dense_nullspace(restrict_free(B, constrained))
    assert V.shape[1] > 0
    # load vector of grad phi, quadrature exact for degree 5 + p
    rhs = load_vector(space, gradient_potential_grad, order=10)
    # norms: ||grad phi|| on the square and the L2 norm of each kernel field
    grad_norm = math.sqrt(72.0 / 11.0)
    rule = triangle_rule(2 * p + 2)
    M = np.zeros((space.ndof, space.ndof))
    for e in range(mesh.num_triangles):
        det = GeometryMap.dets(mesh.geometry([e]).jacobian(rule.points))[0]
        wq = rule.weights * det
        bv = space.eval_basis([e], rule.points)[0][0]
        dofs = space.dof_map[e]
        M[np.ix_(dofs, dofs)] += np.einsum("q,qic,qjc->ij", wq, bv, bv)
    for j in range(V.shape[1]):
        v = np.zeros(space.ndof)
        v[free] = V[:, j]
        vnorm = math.sqrt(v @ M @ v)
        assert abs(rhs @ v) <= 1e-9 * grad_norm * vnorm


# -- 6. committed study outputs ---------------------------------------------

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("fixture,csv_name,rel", [
    ("convergence_report", "hconv.csv", 1e-6),
    ("convergence_m1p4_report", "hconv.csv", 1e-6),
    ("convergence_rest_report", "hconv.csv", 1e-6),
    ("locking_report", "locking.csv", 1e-7),
    ("gradrob_report", "rob.csv", 1e-7)])
def test_studies_match_committed_outputs(request, fixture, csv_name, rel):
    """Every CSV cell of a study fixture matches demos/output.

    The three hconv fixtures together cover every cell of hconv.csv.
    hconv is held to 1e-6: its M4 p=3 level-3 cell is ill-conditioned and
    moves by ~2e-7 under round-off alone, and a random one-ulp perturbation
    of the matrix entries moves the M4 p=4 level-3 L2 error by up to 6.3e-7
    (M3's by up to 1.5e-8).
    """
    committed = {(r.p, r.cs2, r.h, r.method, r.metric_name): r.value
                 for r in read_study_csv(OUTPUT / csv_name).rows}
    rows = request.getfixturevalue(fixture).rows
    assert rows
    for r in rows:
        want = committed[(r.p, r.cs2, r.h, r.method, r.metric_name)]
        assert abs(r.value - want) <= rel * abs(want), (r, want)


# -- 7. compact property re-check --------------------------------------------

def test_property_suite_recheck(tmp_path):
    """One fast instance of each cross-cutting property suite."""
    # quadrature exactness
    rule = triangle_rule(9)
    x, y = rule.points[:, 0], rule.points[:, 1]
    exact = math.factorial(4) * math.factorial(5) / math.factorial(11)
    assert abs(float(rule.weights @ (x ** 4 * y ** 5)) - exact) <= 1e-13
    # symmetry and positivity of an assembled grad-div form
    mesh = make_unit_square_mesh(2)
    ms = assemble_method("M4", mesh, 1, paper_coefficients(1), None)
    space, B = ms.velocity_space, ms.b
    assert check_symmetry(B, tol=1e-12) >= 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        xv = rng.standard_normal(space.ndof)
        xv /= np.linalg.norm(xv)
        assert xv @ (B @ xv) >= -1e-10 * abs(B).max()
    # manufactured-problem FD gate
    assert manufactured_defect(convergence_problem(2)) <= 1e-4
    assert manufactured_defect(locking_problem(100.0)) <= 1e-4
    # CSV round trip of a synthetic report
    report = _tiny_report()
    emit_study_csv(report, tmp_path / "r.csv")
    assert read_study_csv(tmp_path / "r.csv").rows == report.rows


def _tiny_report():
    from gdfem.cli import StudyReport
    report = StudyReport("locking")
    for cs2 in (1.0, 1000.0):
        for h in (0.5, 0.25):
            report.add(h, 2, cs2, "M3", "errorHdiv", 0.125 * h ** 2)
            report.add(h, 2, cs2, "M4", "errorDG", 0.25 * h ** 2)
    return report.sort()
