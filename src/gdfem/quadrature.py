"""Quadrature rules on the reference triangle and reference segment.

Triangle rules are built as collapsed (Duffy) tensor products of a
Gauss-Legendre rule with a Gauss-Jacobi rule absorbing the collapse
Jacobian, so arbitrary exactness orders come from a single construction
instead of hard-coded point tables.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_ORDER = 40


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (n, 2) on the triangle, (n, 1) on the segment
    weights: np.ndarray  # (n,), all positive
    exactness_order: int


def check_integer(name, value, minimum, error=ValueError):
    """int(value) for an Integral, not a bool, >= minimum; anything else,
    a float or a string included, raises `error` naming `name`."""
    if (not isinstance(value, Integral) or isinstance(value, bool)
            or value < minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_order(order):
    """int(order) for a quadrature order: an integer from 0 to MAX_ORDER;
    anything else, a bool, a float or a string included, raises
    UnsupportedOrderError."""
    order = check_integer("quadrature order", order, 0, UnsupportedOrderError)
    if order > MAX_ORDER:
        raise UnsupportedOrderError(
            f"quadrature order {order} exceeds supported maximum {MAX_ORDER}")
    return order


def quadrature_orders(p, geom_order):
    """The quadrature orders of a space of degree p on a mesh of geometry
    degree g, by use, for every family.  "assembly": 2p for a product of
    two degree-p fields, 2(g - 1) for the Jacobian factors of the geometry
    map, plus 2; "error norms": 2 more."""
    order = 2 * p + 2 * (geom_order - 1) + 2
    return {"assembly": order, "error norms": order + 2}


def segment_rule(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= order."""
    order = check_order(order)
    n = order // 2 + 1
    xs, ws = roots_legendre(n)
    pts = (xs[:, None] + 1.0) / 2.0
    return QuadratureRule(pts, ws / 2.0, order)


def triangle_rule(order: int) -> QuadratureRule:
    """Symmetric-weight positive rule on {x, y >= 0, x + y <= 1}.

    Exact for all bivariate polynomials of total degree <= order.
    """
    order = check_order(order)
    n = order // 2 + 1
    xa, wa = roots_legendre(n)          # direction along the collapsed edge
    xb, wb = roots_jacobi(n, 1.0, 0.0)  # weight (1-x) absorbs the Duffy Jacobian
    a = (xa + 1.0) / 2.0
    b = (xb + 1.0) / 2.0
    wa = wa / 2.0
    wb = wb / 4.0  # includes the (1-b) factor of the collapse
    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    pts = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
    wts = (WA * WB).ravel()
    return QuadratureRule(pts, wts, order)
