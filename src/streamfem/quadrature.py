"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules use collapsed (Duffy) coordinates with a Gauss-Jacobi
rule absorbing the collapse Jacobian, so exactness up to the requested
polynomial degree is guaranteed by construction and all weights are
positive.  Weights are stated in reference measure: they sum to 1/2 on
the triangle and to 1 on the interval.

This module owns the one-dimensional Gauss rules: ``gauss_legendre`` and
``gauss_jacobi`` read up to 16 points from ``gauss_table``, where
``tools/gauss_table.py`` wrote scipy.special's own roots and weights as
float64 constants, so importing the package loads no scipy.special.
Only a rule of more than 16 points imports it, when it is asked for.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .gauss_table import JACOBI, LEGENDRE

__all__ = ["QuadratureRule", "triangle_rule", "interval_rule",
           "gauss_legendre", "gauss_jacobi", "cached_by_size"]


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray       # (Q, 2) on the triangle, (Q,) on [0, 1]
    weights: np.ndarray      # positive, summing to the reference measure
    exactness_degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return self.weights.shape[0]


def cached_by_size(name, least):
    """Decorator caching a builder of one size argument called ``name``.

    A size that is not an integer (``operator.index``) of at least
    ``least`` raises a ValueError naming it; the builder and its cache
    see every size as an int.
    """
    def decorate(build):
        cached = lru_cache(maxsize=None)(build)

        @wraps(build)
        def builder(size):
            try:
                whole = operator.index(size)
            except TypeError:
                whole = None
            if whole is None or whole < least:
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {size!r}")
            return cached(whole)
        return builder
    return decorate


def gauss_legendre(n):
    """Roots and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n in LEGENDRE:
        return tuple(np.array(part) for part in LEGENDRE[n])
    from scipy.special import roots_legendre
    return roots_legendre(n)


def gauss_jacobi(n):
    """Roots and weights of the n-point Gauss rule on [-1, 1] for the
    weight 1 - x, the Jacobi parameters (1, 0)."""
    if n in JACOBI:
        return tuple(np.array(part) for part in JACOBI[n])
    from scipy.special import roots_jacobi
    return roots_jacobi(n, 1.0, 0.0)


@cached_by_size("degree", 0)
def triangle_rule(degree):
    """Rule on {x, y >= 0, x + y <= 1} exact for total degree <= degree."""
    p = (degree + 2) // 2  # 2p - 1 >= degree
    xu, wu = gauss_legendre(p)
    xv, wv = gauss_jacobi(p)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.25 * wv  # includes the (1 - v) collapse factor
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu * (1.0 - vv)
    y = vv
    w = np.outer(wu, wv)
    pts = np.column_stack([x.ravel(), y.ravel()])
    return QuadratureRule(pts, w.ravel(), 2 * p - 1)


@cached_by_size("npoints", 1)
def interval_rule(npoints):
    """Gauss-Legendre rule on [0, 1] with the given number of points."""
    x, w = gauss_legendre(npoints)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * npoints - 1)
