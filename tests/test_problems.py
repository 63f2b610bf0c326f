"""Manufactured problems: finite-difference gates and structural properties."""

import numpy as np
import pytest

from conftest import gradient_potential, manufactured_defect
from gdfem.problems import (convergence_problem, gradient_potential_grad,
                            gradrob_problem, locking_problem)

RNG = np.random.default_rng(23)


def interior_points(n=20):
    r = 0.85 * np.sqrt(RNG.uniform(0.01, 1.0, n))
    th = RNG.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def fd_grad(u, pts, h=1e-5):
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    return np.stack([(u(pts + ex) - u(pts - ex)) / (2 * h),
                     (u(pts + ey) - u(pts - ey)) / (2 * h)], axis=2)


@pytest.mark.parametrize("make", [lambda: convergence_problem(2),
                                  lambda: convergence_problem(3, cs2=100.0),
                                  lambda: locking_problem(1000.0),
                                  lambda: locking_problem(1.0)])
def test_finite_difference_gates(make):
    """Closed-form gradient, divergence and forcing agree with differences."""
    prob = make()
    assert manufactured_defect(prob) <= 1e-4
    pts = interior_points()
    g = prob.grad_u(pts)
    gfd = fd_grad(prob.u, pts)
    scale = max(np.abs(g).max(), 1.0)
    assert np.abs(g - gfd).max() / scale <= 1e-6
    dfd = gfd[:, 0, 0] + gfd[:, 1, 1]
    assert np.abs(prob.div_u(pts) - dfd).max() / scale <= 1e-6


def test_convergence_solution_tangential():
    """u = psi (-y, x) is orthogonal to the radial direction everywhere,
    so u.n = 0 on the circular boundary holds exactly."""
    prob = convergence_problem(1)
    th = np.linspace(0.0, 2.0 * np.pi, 17)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    un = np.einsum("qc,qc->q", prob.u(pts), pts)
    assert np.abs(un).max() <= 1e-14


def test_convergence_penalty_defaults():
    prob = convergence_problem(3)
    assert prob.coeffs.lambda_b == 90.0
    assert prob.coeffs.lambda_n == 900.0
    custom = convergence_problem(3, lambda_b=5.0, lambda_n=7.0)
    assert (custom.coeffs.lambda_b, custom.coeffs.lambda_n) == (5.0, 7.0)


def test_locking_solution_divergence_free():
    prob = locking_problem(10.0)
    pts = interior_points()
    assert np.abs(prob.div_u(pts)).max() == 0.0
    g = fd_grad(prob.u, pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-9


def test_locking_forcing_independent_of_cs():
    """div u = 0 makes the grad-div term vanish: f has no c_s dependence."""
    pts = interior_points()
    f1 = locking_problem(1.0).f(pts)
    f2 = locking_problem(1000.0).f(pts)
    assert np.abs(f1 - f2).max() == 0.0
    # and f = -0.02 u (streamline term plus zeroth-order term)
    u = locking_problem(1.0).u(pts)
    assert np.abs(f1 + 0.02 * u).max() <= 1e-14


def test_locking_penalty_defaults():
    prob = locking_problem(1.0)
    assert prob.coeffs.lambda_b == 40.0
    assert prob.coeffs.lambda_n == 40.0   # this study uses 10 p^2 for both


def test_gradrob_forcing_is_gradient():
    prob = gradrob_problem(100.0)
    assert not prob.has_exact
    assert manufactured_defect(prob) == 0.0
    pts = interior_points()
    assert np.abs(prob.f(pts) - gradient_potential_grad(pts)).max() == 0.0
    gfd = np.column_stack([
        (gradient_potential(pts + [1e-5, 0]) -
         gradient_potential(pts - [1e-5, 0])) / 2e-5,
        (gradient_potential(pts + [0, 1e-5]) -
         gradient_potential(pts - [0, 1e-5])) / 2e-5])
    assert np.abs(prob.f(pts) - gfd).max() <= 1e-6 * max(np.abs(gfd).max(), 1)


def test_coefficients_shared_shape():
    for prob in (convergence_problem(1), locking_problem(1.0),
                 gradrob_problem(1.0)):
        co = prob.coeffs
        assert co.b_inf == 0.1
        pts = np.array([[0.0, 1.0]])
        assert np.allclose(co.b_at(pts), [[-0.1, 0.0]])


def test_validate_detects_broken_forcing():
    prob = convergence_problem(1)
    good_f = prob.f
    prob.f = lambda pts: good_f(pts) + 0.1
    with pytest.raises(AssertionError):
        manufactured_defect(prob)
