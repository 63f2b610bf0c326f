"""Manufactured problems on the unit disc for the rotational background flow.

All problems use rho = 1, b = 0.1 (-y, x) (so |b|_inf = 0.1 on the disc and
b.n = 0 on the boundary) and a constant sound speed c_s: paper_coefficients
at b_scale = 1, the only flow the forcings below hold for.  The strong
operator the forcings are derived from is

    (b.grad)^2 u - |b|_inf^2 u - grad(c_s^2 div u) = f,

the Euler-Lagrange form of -a + b with homogeneous normal trace.  The closed
forms below were derived and checked symbolically; the tests cross-check
them against finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .forms import CoefficientSet, paper_coefficients


@dataclass
class ManufacturedProblem:
    """Exact solution plus matching forcing and coefficients."""
    coeffs: CoefficientSet
    f: object                       # callable(pts) -> (n, 2)
    u: object = None                # exact solution, None if unknown
    grad_u: object = None           # (n, 2, 2), [q, c, d] = d_d u_c
    div_u: object = None

    @property
    def has_exact(self):
        return self.u is not None


def convergence_problem(p, cs2=1.0, lambda_b=None, lambda_n=None):
    """u = sin(pi x) cos(pi y) (-y, x); smooth, not divergence free."""
    co = paper_coefficients(p, cs2, lambda_b, lambda_n)
    pi = np.pi

    def u(pts):
        x, y = pts[:, 0], pts[:, 1]
        psi = np.sin(pi * x) * np.cos(pi * y)
        return np.column_stack([-y * psi, x * psi])

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        psi = sx * cy
        px = pi * cx * cy
        py = -pi * sx * sy
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = -y * px
        g[:, 0, 1] = -psi - y * py
        g[:, 1, 0] = psi + x * px
        g[:, 1, 1] = x * py
        return g

    def div_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        return -pi * (x * sx * sy + y * cx * cy)

    def f(pts):
        x, y = pts[:, 0], pts[:, 1]
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        psi = sx * cy
        # angular derivatives of psi (R = -y d_x + x d_y)
        rpsi = -pi * (x * sx * sy + y * cx * cy)
        r2psi = pi * (-pi * x * x * sx * cy + 2 * pi * x * y * sy * cx
                      - x * cx * cy - pi * y * y * sx * cy + y * sx * sy)
        # gradient of the divergence rpsi
        ddx = pi * (-pi * x * sy * cx + pi * y * sx * cy - sx * sy)
        ddy = pi * (-pi * x * sx * cy + pi * y * sy * cx - cx * cy)
        fx = (r2psi * (-y) + 2 * rpsi * (-x) + psi * y) / 100.0 \
            - (-y * psi) / 100.0 - cs2 * ddx
        fy = (r2psi * x + 2 * rpsi * (-y) + psi * (-x)) / 100.0 \
            - (x * psi) / 100.0 - cs2 * ddy
        return np.column_stack([fx, fy])

    return ManufacturedProblem(co, f, u, grad_u, div_u)


def _locking_u(pts):
    x, y = pts[:, 0], pts[:, 1]
    phi = np.cos(np.pi * (x * x + y * y))
    return np.column_stack([-y * phi, x * phi])


def _locking_f(pts):
    return -0.02 * _locking_u(pts)


def locking_problem(cs2, p=2, lambda_b=None, lambda_n=None):
    """Divergence-free u = cos(pi (x^2 + y^2)) (-y, x).

    Since div u = 0, the forcing f = -0.02 u is independent of c_s, which is
    what exposes volume locking as c_s grows; every c_s^2 shares the one
    forcing function, so a sweep assembles its load once.
    """
    co = paper_coefficients(p, cs2, lambda_b,
                            10.0 * p * p if lambda_n is None else lambda_n)
    pi = np.pi

    def grad_u(pts):
        x, y = pts[:, 0], pts[:, 1]
        r2 = x * x + y * y
        phi = np.cos(pi * r2)
        dphi = -2.0 * pi * np.sin(pi * r2)    # d phi / d(r^2) chain pieces
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = -y * x * dphi
        g[:, 0, 1] = -phi - y * y * dphi
        g[:, 1, 0] = phi + x * x * dphi
        g[:, 1, 1] = x * y * dphi
        return g

    def div_u(pts):
        return np.zeros(len(pts))

    return ManufacturedProblem(co, _locking_f, _locking_u, grad_u, div_u)


def gradrob_problem(cs2, p=3, lambda_b=None, lambda_n=None):
    """Pure gradient forcing f = grad(x^6 + y^6); exact velocity not needed.

    A gradient-robust method produces u_h whose size scales like 1/c_s^2,
    uniformly in the mesh.  Every c_s^2 shares the one forcing function.
    """
    co = paper_coefficients(p, cs2, lambda_b, lambda_n)
    return ManufacturedProblem(co, gradient_potential_grad)


def gradient_potential_grad(pts):
    """The gradrob forcing, grad phi for the potential phi = x^6 + y^6."""
    return np.column_stack([6.0 * pts[:, 0] ** 5, 6.0 * pts[:, 1] ** 5])
