"""Static wormhole geometry for the power-law shape family.

Shape functions ``b(r) = b0 * (r/b0)**q`` pin the throat at ``r = b0`` for
every exponent. Everything in this module depends only on the ratio
``r/b0``, so any single length unit (micrometres elsewhere in this
package) can be used throughout.

Radial integrals (proper distance, embedding height, and the
flow-adapted time offset in ``gp3d``) go through one quadrature,
``_integrate_from_throat``. The integrands behave like (r' - b0)**-1/2 at
the throat, so they are written in u = sqrt(r' - b0), where they are
smooth; they turn from constant to power-law behaviour around
u ~ sqrt(b0). The u axis is cut into panels at 0, at every requested
target and at the graded points sqrt(b0) * 2**k (k >= 0) below the
largest target; each panel gets a 16-node Gauss-Legendre rule and the
panel sums are accumulated, so one pass yields the integral at every
target. The grading matters: a single 32-node rule on [0, u_max] is off
by 7e-8 at r/b0 = 1e3 and by 1e-4 at 1e4. As a check, the same sums are
taken with 20 nodes; where the two differ by more than
max(abs_tol, rel_tol * |I|), or are not finite, ConvergenceError is
raised.

Verified against 30-digit mpmath tanh-sinh quadrature for q in
[-3, 0.99], b0 in {0.01, 1, 100} and r/b0 from 1 + 1e-9 to 1e9: both
integrals agree to 8.9e-16 relative (at most 16 graded panels). The
check raised no ConvergenceError for q up to 0.999999, b0 from 1e-6 to
1e6 and r/b0 up to 1e12.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, DomainError

__all__ = [
    "ShapeFunction",
    "ThroatClass",
    "classify_throat",
    "shape_b",
    "metric_factor",
    "effective_light_speed",
    "proper_distance",
    "embedding_height",
    "MAX_GRID_POINTS",
    "uniform_grid",
]

# Gauss-Legendre (nodes, weights) on [-1, 1]: the rule and its check.
_GAUSS_16 = np.polynomial.legendre.leggauss(16)
_GAUSS_20 = np.polynomial.legendre.leggauss(20)

# Largest point count of one grid walk; a symmetric grid mirrors one walk.
MAX_GRID_POINTS = 10**6


class ThroatClass(enum.Enum):
    """Throat geometry class as a function of the shape exponent."""

    TRAVERSABLE = "traversable"            # q < 1
    DEGENERATE = "degenerate"              # q = 1
    SIGNATURE_BROKEN = "signature_broken"  # q > 1


def classify_throat(q: float) -> ThroatClass:
    """Classify the throat: the metric factor outside it is positive only
    for q < 1, identically zero for q = 1, and negative for q > 1."""
    if q < 1.0:
        return ThroatClass.TRAVERSABLE
    if q == 1.0:
        return ThroatClass.DEGENERATE
    return ThroatClass.SIGNATURE_BROKEN


@dataclass(frozen=True)
class ShapeFunction:
    """Power-law shape function with throat radius ``b0`` and exponent ``q``."""

    b0: float
    q: float

    def __post_init__(self) -> None:
        if not self.b0 > 0.0:
            raise DomainError(f"throat radius must be positive, got {self.b0!r}")

    @property
    def throat_class(self) -> ThroatClass:
        return classify_throat(self.q)


def uniform_grid(start: float, span: float, step: float) -> np.ndarray:
    """start + k*step for k = 0 .. floor(span/step + 1e-9); the slack keeps
    the far end when span/step rounds just below an integer."""
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if not span >= 0.0:
        raise DomainError(f"grid span must be non-negative, got {span!r}")
    steps = span / step + 1e-9
    if not steps < MAX_GRID_POINTS:  # before allocating; also inf and nan
        raise DomainError(f"a grid over {span!r} at step {step!r} exceeds "
                          f"{MAX_GRID_POINTS} points")
    return start + np.arange(math.floor(steps) + 1) * step


def _require_outside_throat(shape: ShapeFunction, r: float) -> None:
    if r < shape.b0:
        raise DomainError(f"r = {r!r} is inside the throat (b0 = {shape.b0!r})")


def _require_traversable(shape: ShapeFunction, what: str) -> None:
    if shape.q >= 1.0:
        raise DomainError(f"{what} requires q < 1, got q = {shape.q!r} "
                          f"({shape.throat_class.value})")


def shape_b(shape: ShapeFunction, r: float) -> float:
    """b(r) = b0 * (r/b0)**q; equals b0 exactly at the throat."""
    _require_outside_throat(shape, r)
    return shape.b0 * (r / shape.b0) ** shape.q


def metric_factor(shape: ShapeFunction, r: float) -> float:
    """1 - b(r)/r, in [0, 1) outside the throat for q < 1.

    For q > 1 the value is negative for r > b0; callers decide whether a
    broken signature is an error for them.
    """
    _require_outside_throat(shape, r)
    # expm1 keeps precision where b(r)/r -> 1 near the throat.
    return -math.expm1(-(1.0 - shape.q) * math.log(r / shape.b0))


def effective_light_speed(shape: ShapeFunction, r: float, light_speed: float) -> float:
    """Position-dependent signal speed c * sqrt(1 - b(r)/r)."""
    factor = metric_factor(shape, r)
    if factor < 0.0:
        raise DomainError(f"metric factor {factor!r} < 0 at r = {r!r}: "
                          "no real signal speed")
    return light_speed * math.sqrt(factor)


def _check_side(side: int) -> int:
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    return side


def _integrate_from_throat(integrand: Callable[[np.ndarray], np.ndarray],
                           b0: float, u_targets: float | np.ndarray,
                           rel_tol: float, abs_tol: float) -> np.ndarray:
    """Integral of the vectorized ``integrand`` over u from 0 to each of
    ``u_targets`` (graded Gauss-Legendre panels, see the module docstring).

    The result has the shape of ``u_targets``; a target of 0 gives exactly 0.
    """
    u_targets = np.asarray(u_targets, dtype=float)
    graded = [0.0]
    point = math.sqrt(b0)
    u_max = float(u_targets.max(initial=0.0))
    while point < u_max:
        graded.append(point)
        point *= 2.0
    # Sorted and deduplicated; np.unique would import numpy.ma (~10 ms)
    # on its first call in a process.
    edges = np.sort(np.concatenate((graded, u_targets.ravel())))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]

    def cumulative(rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        nodes, weights = rule
        panels = (integrand(mid + half * nodes) @ weights) * half[:, 0]
        return np.concatenate(([0.0], np.cumsum(panels)))

    integral = cumulative(_GAUSS_16)
    check = cumulative(_GAUSS_20)
    failed = ~(np.abs(check - integral)
               <= np.maximum(abs_tol, rel_tol * np.abs(integral)))
    if failed.any():
        k = int(np.argmax(failed))
        raise ConvergenceError(
            f"quadrature failed on [{b0!r}, {b0 + float(edges[k]) ** 2!r}]: "
            f"the 16- and 20-node rules give {float(integral[k])!r} and "
            f"{float(check[k])!r}")
    return integral[np.searchsorted(edges, u_targets)]


def _proper_integrand(u: np.ndarray, b0: float, one_minus_q: float) -> np.ndarray:
    factor = -np.expm1(-one_minus_q * np.log1p(u * u / b0))
    return 2.0 * u / np.sqrt(factor)


def _embedding_integrand(u: np.ndarray, b0: float, one_minus_q: float) -> np.ndarray:
    rise = np.expm1(one_minus_q * np.log1p(u * u / b0))
    return 2.0 * u / np.sqrt(rise)


def proper_distance(shape: ShapeFunction, r: float, side: int = 1, *,
                    rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> float:
    """Signed proper radial distance from the throat to r.

    Zero at the throat, strictly increasing in r, with the sign chosen by
    ``side`` for the two branches.
    """
    _require_traversable(shape, "proper distance")
    _require_outside_throat(shape, r)
    sign = _check_side(side)
    if r == shape.b0:
        return 0.0
    b0, one_minus_q = shape.b0, 1.0 - shape.q
    distance = _integrate_from_throat(
        lambda u: _proper_integrand(u, b0, one_minus_q),
        b0, math.sqrt(r - b0), rel_tol, abs_tol)
    return sign * float(distance)


def embedding_height(shape: ShapeFunction, r: float | np.ndarray, *,
                     rel_tol: float = 1e-10, abs_tol: float = 1e-12
                     ) -> float | np.ndarray:
    """Height z(r) >= 0 of the embedding surface of revolution.

    The surface is the one in flat cylindrical space whose induced metric
    reproduces the spatial slice, i.e. dz/dr = (r/b(r) - 1)**-1/2. Mirror
    the result to -z for the second sheet. A float r gives a float; an
    array of radii gives the array of heights, from one integration.
    """
    _require_traversable(shape, "embedding")
    radii = np.asarray(r, dtype=float)
    _require_outside_throat(shape, float(radii.min(initial=shape.b0)))
    b0, one_minus_q = shape.b0, 1.0 - shape.q
    heights = _integrate_from_throat(
        lambda u: _embedding_integrand(u, b0, one_minus_q),
        b0, np.sqrt(radii - b0), rel_tol, abs_tol)
    return float(heights) if radii.ndim == 0 else heights
