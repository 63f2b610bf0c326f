"""Shared fixtures.

Expensive study runs (used by the acceptance tests) are session-scoped so
they execute once even when several tests assert on them.
"""

import numpy as np
import pytest

from gdfem.cli import run_convergence, run_gradrob, run_locking
from gdfem.mesh import make_unit_disc_mesh, make_unit_square_mesh


@pytest.fixture(scope="session")
def square1():
    return make_unit_square_mesh(1)


@pytest.fixture(scope="session")
def square2():
    return make_unit_square_mesh(2)


@pytest.fixture(scope="session")
def disc1_curved():
    return make_unit_disc_mesh(1, geom_order=2)


@pytest.fixture(scope="session")
def convergence_report():
    """Default convergence study for M3/M4, p = 1..3 (acceptance criterion 1)."""
    report, warnings = run_convergence(p_list=(1, 2, 3), methods=("M3", "M4"))
    assert not warnings
    return report


@pytest.fixture(scope="session")
def convergence_m1p4_report():
    """M1 at p = 4 (its divergence-free-subspace-stable degree)."""
    report, warnings = run_convergence(p_list=(4,), methods=("M1",))
    assert not warnings
    return report


@pytest.fixture(scope="session")
def locking_report():
    report, warnings = run_locking()
    assert not warnings
    return report


@pytest.fixture(scope="session")
def gradrob_report():
    report, warnings = run_gradrob()
    assert not warnings
    return report


def series(report, method, metric, p=None, cs2=None):
    """(h, value) arrays of one curve of a study report, h descending."""
    rows = [r for r in report.rows
            if r.method == method and r.metric_name == metric
            and (p is None or r.p == p)
            and (cs2 is None or r.cs2 == cs2)]
    rows.sort(key=lambda r: -r.h)
    return (np.array([r.h for r in rows]),
            np.array([r.value for r in rows]))


def check_symmetry(M, tol=1e-12):
    """Maximum absolute skew |M - M^T|; raises if it exceeds tol * max|entry|."""
    skew = abs(M - M.T).max()
    scale = abs(M).max()
    if skew > tol * max(scale, 1.0):
        raise ValueError(f"matrix not symmetric: skew {skew:g}, scale {scale:g}")
    return float(skew)
