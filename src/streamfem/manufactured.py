"""Closed-form data for the convergence study on the unit square.

All fields are finite sums of separable terms sigma_i(t) * w_i(x) with
hand-coded derivatives; the separable structure is exposed so solvers
and error integrators can precompute one spatial load per term.

Sign conventions: the rotated gradient Curl(psi) = (d2 psi, -d1 psi)
generates the velocity, and the scalar curl(v) = d2 v1 - d1 v2 is its
counterpart satisfying curl(Curl(psi)) = Lap(psi).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TimeFactor", "SpatialTerm", "ScalarField", "VectorField",
           "phi", "psi_exact", "u_exact", "g_field", "g_tilde", "f_scalar"]

TWO_PI = 2.0 * math.pi
PERTURBATION_SCALE = 1.0e5
PERTURBATION_EXPONENT = -0.49


@dataclass(frozen=True)
class TimeFactor:
    """Scalar time factor sigma(t) with its derivative."""

    fn: Callable[[float], float]
    dfn: Callable[[float], float]

    @staticmethod
    def one():
        return TimeFactor(lambda t: 1.0, lambda t: 0.0)

    @staticmethod
    def sin_2pi():
        return TimeFactor(lambda t: math.sin(TWO_PI * t),
                          lambda t: TWO_PI * math.cos(TWO_PI * t))

    @staticmethod
    def dt_sin_2pi():
        return TimeFactor(lambda t: TWO_PI * math.cos(TWO_PI * t),
                          lambda t: -TWO_PI ** 2 * math.sin(TWO_PI * t))

    def scaled(self, c):
        return TimeFactor(lambda t: c * self.fn(t), lambda t: c * self.dfn(t))


@dataclass(frozen=True)
class SpatialTerm:
    """Static spatial factor with whichever derivatives are available.

    ``value`` maps points of shape (..., 2) to scalars (...,) or vectors
    (..., 2); ``grad`` and ``hess`` append one resp. two axes of size 2.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None


class _FieldBase:
    def __init__(self, terms, clamped=False):
        self.terms: Sequence[Tuple[TimeFactor, SpatialTerm]] = tuple(terms)
        self.clamped = clamped

    def _sum(self, t, x, pick):
        total = None
        for tf, term in self.terms:
            f = getattr(term, pick)
            if f is None:
                raise ValueError(f"{pick} not available for this field")
            piece = tf.fn(t) * f(np.asarray(x, dtype=float))
            total = piece if total is None else total + piece
        return total

    def static_terms(self):
        """Each term as (sigma_i, w_i viewed as a time-independent field).

        The field is of the same class and clamping, with the time
        factor one, so its values are those of w_i bit for bit.
        """
        return [(tf, type(self)([(TimeFactor.one(), term)],
                                clamped=self.clamped))
                for tf, term in self.terms]

    def value(self, t, x):
        return self._sum(t, x, "value")

    def grad(self, t, x):
        return self._sum(t, x, "grad")

    def hess(self, t, x):
        return self._sum(t, x, "hess")


class ScalarField(_FieldBase):
    """Time-dependent scalar field as a sum of separable terms."""


class VectorField(_FieldBase):
    """Time-dependent vector field as a sum of separable terms."""


# -- sin^2 building blocks ----------------------------------------------
# s(x) = sin(2 pi x)^2 and its derivatives

def _s0(x):
    return np.sin(TWO_PI * x) ** 2


def _s1(x):
    return TWO_PI * np.sin(2.0 * TWO_PI * x)


def _s2(x):
    return 2.0 * TWO_PI ** 2 * np.cos(2.0 * TWO_PI * x)


def _s3(x):
    return -4.0 * TWO_PI ** 3 * np.sin(2.0 * TWO_PI * x)


def _s4(x):
    return -8.0 * TWO_PI ** 4 * np.cos(2.0 * TWO_PI * x)


def _phi_value(p):
    return _s0(p[..., 0]) * _s0(p[..., 1])


def _phi_grad(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([_s1(x) * _s0(y), _s0(x) * _s1(y)], axis=-1)


def _phi_hess(p):
    x, y = p[..., 0], p[..., 1]
    hxx = _s2(x) * _s0(y)
    hxy = _s1(x) * _s1(y)
    hyy = _s0(x) * _s2(y)
    h = np.stack([hxx, hxy, hxy, hyy], axis=-1)
    return h.reshape(h.shape[:-1] + (2, 2))


def _lap_phi_value(p):
    x, y = p[..., 0], p[..., 1]
    return _s2(x) * _s0(y) + _s0(x) * _s2(y)


def _lap_phi_grad(p):
    x, y = p[..., 0], p[..., 1]
    gx = _s3(x) * _s0(y) + _s1(x) * _s2(y)
    gy = _s2(x) * _s1(y) + _s0(x) * _s3(y)
    return np.stack([gx, gy], axis=-1)


def _bilap_phi_value(p):
    x, y = p[..., 0], p[..., 1]
    return _s4(x) * _s0(y) + 2.0 * _s2(x) * _s2(y) + _s0(x) * _s4(y)


def _rot(grad_fn):
    """Rotated gradient (d2 w, -d1 w) of a scalar spatial factor."""
    def value(p):
        g = grad_fn(p)
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)
    return value


_PHI = SpatialTerm(_phi_value, _phi_grad, _phi_hess)
_LAP_PHI = SpatialTerm(_lap_phi_value, _lap_phi_grad)
_BILAP_PHI = SpatialTerm(_bilap_phi_value)
_CURL_PHI = SpatialTerm(_rot(_phi_grad))
_CURL_LAP_PHI = SpatialTerm(_rot(_lap_phi_grad))


def _perturbation_value(p):
    x = p[..., 0]
    if np.any(x <= 0.0):
        raise ValueError("gradient perturbation undefined for x1 <= 0")
    out = np.zeros(p.shape)
    out[..., 0] = PERTURBATION_SCALE * x ** PERTURBATION_EXPONENT
    return out


_PERTURBATION = SpatialTerm(_perturbation_value)


# -- public fields -------------------------------------------------------


def phi():
    """Stream-function profile sin(2 pi x1)^2 sin(2 pi x2)^2."""
    return ScalarField([(TimeFactor.one(), _PHI)], clamped=True)


def psi_exact():
    """Exact stream function sin(2 pi t) * phi(x)."""
    return ScalarField([(TimeFactor.sin_2pi(), _PHI)], clamped=True)


def u_exact():
    """Exact velocity: rotated gradient of the stream function."""
    return VectorField([(TimeFactor.sin_2pi(), _CURL_PHI)])


def g_field():
    """Body force dt(u) - Lap(u) of the exact velocity."""
    return VectorField([(TimeFactor.dt_sin_2pi(), _CURL_PHI),
                        (TimeFactor.sin_2pi().scaled(-1.0), _CURL_LAP_PHI)])


def g_tilde():
    """Body force perturbed by the gradient field 1e5 (x1^-0.49, 0).

    The perturbation is curl-free, so the induced stream-function data
    is unchanged; only pressure-coupled discretizations feel it.
    """
    return VectorField([(TimeFactor.dt_sin_2pi(), _CURL_PHI),
                        (TimeFactor.sin_2pi().scaled(-1.0), _CURL_LAP_PHI),
                        (TimeFactor.one(), _PERTURBATION)])


def f_scalar():
    """Scalar data -curl(g) = -dt(Lap psi) + Lap^2 psi in closed form."""
    return ScalarField([(TimeFactor.dt_sin_2pi().scaled(-1.0), _LAP_PHI),
                        (TimeFactor.sin_2pi(), _BILAP_PHI)])
