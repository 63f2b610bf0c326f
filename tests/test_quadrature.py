"""Exactness and robustness of the segment and triangle quadrature rules."""

import math

import numpy as np
import pytest

from gdfem.quadrature import (MAX_ORDER, QuadratureRule, UnsupportedOrderError,
                              quadrature_orders, segment_rule, triangle_rule)


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("order", range(0, 21))
def test_triangle_exactness_sweep(order):
    rule = triangle_rule(order)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(order + 1):
        for b in range(order + 1 - a):
            got = float(rule.weights @ (x ** a * y ** b))
            assert abs(got - monomial_integral(a, b)) <= 1e-13


@pytest.mark.parametrize("order", range(0, 21))
def test_segment_exactness_sweep(order):
    rule = segment_rule(order)
    t = rule.points[:, 0]
    for k in range(order + 1):
        assert abs(float(rule.weights @ t ** k) - 1.0 / (k + 1)) <= 1e-13


def test_weights_positive_and_normalized():
    for order in (0, 3, 8, 17):
        tri = triangle_rule(order)
        seg = segment_rule(order)
        assert np.all(tri.weights > 0)
        assert np.all(seg.weights > 0)
        assert abs(tri.weights.sum() - 0.5) <= 1e-14
        assert abs(seg.weights.sum() - 1.0) <= 1e-14
        assert np.all(tri.points >= -1e-15)
        assert np.all(tri.points.sum(axis=1) <= 1.0 + 1e-15)


def test_exactness_order_recorded():
    assert triangle_rule(7).exactness_order == 7
    assert isinstance(triangle_rule(4), QuadratureRule)


def test_unsupported_orders_rejected():
    """Orders are integers from 0 to MAX_ORDER: True is not order 1, and
    2.5 does not truncate to a two-point rule."""
    for bad in (True, 2.5, "4"):
        for rule in (triangle_rule, segment_rule):
            with pytest.raises(UnsupportedOrderError, match="order"):
                rule(bad)
    with pytest.raises(UnsupportedOrderError):
        triangle_rule(MAX_ORDER + 1)
    with pytest.raises(UnsupportedOrderError):
        triangle_rule(-1)
    with pytest.raises(UnsupportedOrderError):
        segment_rule(MAX_ORDER + 1)


def test_max_order_still_works():
    rule = triangle_rule(MAX_ORDER)
    x = rule.points[:, 0]
    got = float(rule.weights @ x ** MAX_ORDER)
    assert abs(got - monomial_integral(MAX_ORDER, 0)) <= 1e-13


def test_quadrature_orders_by_use():
    """A space's orders: assembly 2p + 2(g - 1) + 2, the error norms 2
    more, whatever its family."""
    assert quadrature_orders(1, 19) == {"assembly": 40, "error norms": 42}
    assert quadrature_orders(1, 2) == {"assembly": 6, "error norms": 8}
    assert quadrature_orders(2, 17) == {"assembly": 38, "error norms": 40}
