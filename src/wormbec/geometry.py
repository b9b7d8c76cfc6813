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
target. The rules are evaluated over blocks of 1024 consecutive panels
(``_PANEL_BLOCK``) into one array of panel sums, accumulated by a single
cumsum, which gives the bits of evaluating all panels at once. Beside
about 9 arrays of one double per target (for 200001 radii a tracemalloc
peak of 13.7 MiB, 9x the radii), the working memory is one block's nodes
and their temporaries, about 1 MiB whatever the target count. The grading
matters: a single 32-node rule on [0, u_max] is off by 7e-8 at r/b0 = 1e3
and by 1e-4 at 1e4. As a check, the same sums are taken with 20 nodes;
where the two differ by more than max(QUAD_ABS_TOL, QUAD_REL_TOL * |I|),
or are not finite, ConvergenceError is raised.

Verified against 30-digit mpmath tanh-sinh quadrature for q in
[-3, 0.99], b0 in {0.01, 1, 100} and r/b0 from 1 + 1e-9 to 1e9: both
integrals agree to 8.9e-16 relative (at most 16 graded panels). The
check raised no ConvergenceError for q up to 0.999999, b0 from 1e-6 to
1e6 and r/b0 up to 1e12.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, DomainError

__all__ = [
    "ShapeFunction",
    "ThroatClass",
    "classify_throat",
    "metric_factor",
    "proper_distance",
    "embedding_height",
    "MAX_GRID_POINTS",
    "uniform_grid",
]

# Largest point count of one grid walk; a symmetric grid mirrors one walk.
MAX_GRID_POINTS = 10**6
QUAD_REL_TOL, QUAD_ABS_TOL = 1e-10, 1e-12
# Panels whose nodes are evaluated at once (module docstring). A power of
# two: a block whose length is not a multiple of the BLAS kernel's unroll
# sends a different set of panels down its tail path and changes low bits.
_PANEL_BLOCK = 1024


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
        _check_throat(self.b0)

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


def _float_or_array(value: np.ndarray) -> float | np.ndarray:
    """A float for a 0-d result (a float input), else the array."""
    return float(value) if np.ndim(value) == 0 else value


def _check_throat(b0: float, r: float | np.ndarray = ()) -> np.ndarray:
    """r as a float array; DomainError unless b0 > 0 and no r is inside the throat."""
    if not b0 > 0.0:
        raise DomainError(f"throat radius must be positive, got {b0!r}")
    r = np.asarray(r, dtype=float)
    if (r < b0).any():  # nanmin: a NaN radius is not inside
        raise DomainError(f"r = {float(np.nanmin(r))!r} is inside the throat (b0 = {b0!r})")
    return r


def _require_traversable(shape: ShapeFunction, what: str) -> None:
    if shape.q >= 1.0:
        raise DomainError(f"{what} requires q < 1, got q = {shape.q!r} "
                          f"({shape.throat_class.value})")


def metric_factor(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """1 - b(r)/r = 1 - (b0/r)**(1-q), in [0, 1) outside the throat for q < 1.

    For q > 1 the value is negative for r > b0; callers decide whether a
    broken signature is an error for them.
    """
    r = _check_throat(shape.b0, r)
    # log1p of (r - b0)/b0, exact near the throat, and expm1 keep precision
    # where b(r)/r -> 1.
    return _float_or_array(-np.expm1(-(1.0 - shape.q) * np.log1p((r - shape.b0) / shape.b0)))


def _check_side(side: int) -> int:
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    return side


@functools.cache
def _gauss_rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gauss-Legendre (nodes, weights) on [-1, 1]: the 16-node rule and its
    20-node check, built on first use (importing numpy.polynomial costs
    milliseconds that the modules which never integrate need not pay)."""
    return np.polynomial.legendre.leggauss(16), np.polynomial.legendre.leggauss(20)


def _integrate_from_throat(integrand: Callable[[np.ndarray], np.ndarray],
                           b0: float, u_targets: float | np.ndarray) -> np.ndarray:
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
        panels = np.empty(len(half))
        for start in range(0, len(panels), _PANEL_BLOCK):
            block = slice(start, start + _PANEL_BLOCK)
            panels[block] = integrand(mid[block] + half[block] * nodes) @ weights
        panels *= half[:, 0]
        # one cumsum over all panels: a per-block sum plus a carry would
        # round differently
        return np.concatenate(([0.0], np.cumsum(panels)))

    rule, check_rule = _gauss_rules()
    integral = cumulative(rule)
    check = cumulative(check_rule)
    failed = ~(np.abs(check - integral)
               <= np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(integral)))
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


def proper_distance(shape: ShapeFunction, r: float, side: int = 1) -> float:
    """Signed proper radial distance from the throat to r.

    Zero at the throat, strictly increasing in r, with the sign chosen by
    ``side`` for the two branches.
    """
    _require_traversable(shape, "proper distance")
    _check_throat(shape.b0, r)
    sign = _check_side(side)
    if r == shape.b0:
        return 0.0
    b0, one_minus_q = shape.b0, 1.0 - shape.q
    distance = _integrate_from_throat(
        lambda u: _proper_integrand(u, b0, one_minus_q),
        b0, math.sqrt(r - b0))
    return sign * float(distance)


def embedding_height(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """Height z(r) >= 0 of the embedding surface of revolution.

    The surface is the one in flat cylindrical space whose induced metric
    reproduces the spatial slice, i.e. dz/dr = (r/b(r) - 1)**-1/2. Mirror
    the result to -z for the second sheet. A float r gives a float; an
    array of radii gives the array of heights, from one integration.
    """
    _require_traversable(shape, "embedding")
    radii = _check_throat(shape.b0, r)
    b0, one_minus_q = shape.b0, 1.0 - shape.q
    return _float_or_array(_integrate_from_throat(
        lambda u: _embedding_integrand(u, b0, one_minus_q),
        b0, np.sqrt(radii - b0)))
