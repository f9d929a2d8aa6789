import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from streamfem.dg_time import radau_points
from streamfem.gauss_table import JACOBI, LEGENDRE
from streamfem.quadrature import (gauss_jacobi, gauss_legendre,
                                  interval_rule, triangle_rule)


def exact_triangle_monomial(i, j):
    # int_T x^i y^j over the reference triangle
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 8, 12])
def test_triangle_rule_exactness(degree):
    rule = triangle_rule(degree)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.all(rule.weights > 0)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            approx = np.sum(rule.weights * rule.points[:, 0] ** i
                            * rule.points[:, 1] ** j)
            assert approx == pytest.approx(exact_triangle_monomial(i, j),
                                           abs=1e-12)


@pytest.mark.parametrize("npts", [1, 2, 4, 8])
def test_interval_rule_exactness(npts):
    rule = interval_rule(npts)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for d in range(rule.exactness_degree + 1):
        assert np.sum(rule.weights * rule.points ** d) == \
            pytest.approx(1.0 / (d + 1), abs=1e-12)


def test_points_strictly_inside():
    rule = triangle_rule(8)
    assert np.all(rule.points > 0.0)
    assert np.all(rule.points.sum(axis=1) < 1.0)


def test_invalid_arguments():
    """A size that is not an integer in range, an integral float
    included, is refused with a ValueError naming the argument."""
    for build, name, size in ((triangle_rule, "degree", -1),
                              (interval_rule, "npoints", 0),
                              (radau_points, "order", -1),
                              (triangle_rule, "degree", 2.5),
                              (interval_rule, "npoints", 2.5),
                              (radau_points, "order", 2.5),
                              (interval_rule, "npoints", 2.0),
                              (triangle_rule, "degree", 3.0),
                              (radau_points, "order", 2.0),
                              (interval_rule, "npoints", float("nan")),
                              (interval_rule, "npoints", float("inf")),
                              (interval_rule, "npoints", "2"),
                              (interval_rule, "npoints", None)):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= "):
            build(size)
    assert type(interval_rule(np.int64(2)).exactness_degree) is int


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_gauss_table_is_scipys_rules_bit_for_bit():
    """Every entry of the table, and the rule ``quadrature`` returns from
    it, has the bits of scipy.special's roots and weights."""
    assert sorted(LEGENDRE) == sorted(JACOBI) == list(range(1, 17))
    for n in range(1, 17):
        for table, lookup, want in (
                (LEGENDRE, gauss_legendre, roots_legendre(n)),
                (JACOBI, gauss_jacobi, roots_jacobi(n, 1.0, 0.0))):
            for entry, got, part in zip(table[n], lookup(n), want):
                assert _bits(entry) == _bits(got) == _bits(part), n


def test_rules_past_the_table_come_from_scipy():
    """Past 16 points the lookup asks scipy.special for the rule."""
    for lookup, want in ((gauss_legendre, roots_legendre(17)),
                         (gauss_jacobi, roots_jacobi(17, 1.0, 0.0))):
        for got, part in zip(lookup(17), want):
            assert _bits(got) == _bits(part)
    assert len(triangle_rule(32)) == 17 * 17

