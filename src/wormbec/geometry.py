"""Static wormhole geometry for the power-law shape family.

Shape functions ``b(r) = b0 * (r/b0)**q`` pin the throat at ``r = b0`` for
every exponent. Everything in this module depends only on the ratio
``r/b0``, so any single length unit (micrometres elsewhere in this
package) can be used throughout.

Radial integrals (proper distance, whose multiple is the flow-adapted
time offset in ``gp3d``, and embedding height) go through one helper,
``_radial_integral``, which checks the radii and runs one quadrature,
``_integrate_from_throat``. The integrands behave like (r' - b0)**-1/2 at
the throat, so they are written in u = sqrt(r' - b0), where they are
smooth; they turn from constant to power-law behaviour around
u ~ sqrt(b0/(1-q)). The u axis is cut into panels at 0, at every requested
target and at the graded points sqrt(b0) * 2**k below the largest target:
every k >= 0, and k < 0 while the point stays above that turnover (for
q < -3 only); each panel gets a 16-node Gauss-Legendre rule and the
panel sums are accumulated, so one pass yields the integral at every
target. The rules are literals in this module (``_gauss_rules``), not
built from numpy.polynomial. A panel's weighted node values are summed
node after node in elementwise numpy, not by a BLAS product, so neither
the BLAS kernel nor the block size sets its bits. The panels are
integrated in blocks of 1024 (``_KERNEL_BLOCK``): each rule's panel sums of
a block are accumulated by one cumsum led by that rule's sum carried from
the block before. A cumsum adds left to right, so this gives the bits of
one cumsum over all panels, which are also the bits of evaluating all
panels at once. Each block is checked as soon as it is integrated, in the
one array of integrals. Beside about 4 arrays of one double per target
(targets, edges, integrals, result), the working memory is one block's
nodes and their temporaries (three arrays of nodes), about 0.5 MiB
whatever the target count: a tracemalloc peak of 6.1 MiB (4x the radii)
for 200001 radii and 0.97 MiB (6x) for 20001. The grading matters: a
single 32-node rule on [0, u_max] is off by 7e-8 at r/b0 = 1e3 and by 1e-4
at 1e4. As a check, the same sums are taken with 20 nodes; where the two
differ by more than max(QUAD_ABS_TOL, QUAD_REL_TOL * |I|), or are not
finite, ConvergenceError is raised at the first such target.

Error state: the quadrature runs with numpy's overflow, divide-by-zero and
invalid-operation warnings off. Where the rise (r/b0)**(1-q) - 1 overflows
(q below about -440 at r = 5 b0; for q >= -1 from r/b0 ~ 1.3e154 on), the
embedding integrand 2u/sqrt(rise) is taken as 2u * (1 + u**2/b0)**(-(1-q)/2)
through the logarithm (2 ln u - ln b0 where u**2/b0 overflows too): the
rise's -1 is below an ulp there, and the tail is not negligible for
q >= -1, so it cannot be dropped. Any other overflow, zero division or
invalid operation leaves an inf or NaN sum, which fails the check (the
check's own inf - inf gives a NaN, which counts as failed). So the
quadrature gives a value or a ConvergenceError, never a RuntimeWarning.

Verified against the closed forms. With a = 1/(1-q) and f = 1 - b/r,
both integrals are incomplete beta functions:
z = 2 a b0 sqrt(f) 2F1(1/2, a + 1/2; 3/2; f) and
l = 2 a b0 sqrt(f) 2F1(1/2, a + 1; 3/2; f), elementary at q = -1
(b0 arccosh(r/b0), sqrt(r**2 - b0**2)) and q = 0 (2 sqrt(b0 (r - b0)),
sqrt(r (r - b0)) + b0 arccosh(sqrt(r/b0))). Evaluated with mpmath, they
check in tier-1. For q in {-3.3, -2, -1, -0.5, 0, 0.25, 1/3, 0.5, 0.9,
0.999999}, b0 in {1e-3, 1, 1e3} and r from b0 (1 + 1e-9) out to 1e300,
both integrals agree to 2.2e-14 (z at q = 1/3 and r = 1e300), to
5.9e-15 at the other q and to 6.6e-16 for q <= -2 and q >= 0.9. For q in
{-50, -440, -1e4}, b0 in {1e-3, 1, 1e3} and 400 radii from b0 (1 + 1e-12)
to 1e300, they agree to 4.4e-16. A hypothesis property over q in [-1e4,
0.999999], b0 in [1e-6, 1e6] and r/b0 in [1 + 1e-12, 1e300/b0] checks both
to 1e-13 (a scan found 5.6e-14 at worst: z at q = -0.63, r = 1e295). For
q < -1, z at r = 1e300 meets its limit a b0 B(1/2, 1/2 - a) to 5.9e-16 for
q from -1.5 to -1e4. Against 30-digit mpmath tanh-sinh
quadrature, for q in [-3, 0.99], b0 in {0.01, 1, 100} and r/b0 from
1 + 1e-9 to 1e9, they agree to 8.9e-16 (at most 16 graded panels). The
check raised no ConvergenceError for q up to 0.999999, b0 from 1e-6 to
1e6 and r/b0 up to 1e12.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, DomainError

__all__ = [
    "ShapeFunction",
    "metric_factor",
    "proper_distance",
    "embedding_height",
    "MAX_GRID_POINTS",
    "uniform_grid",
]

# Largest point count of one grid walk. Both lab tables, 1+1D and 3+1D, are
# a half of one walk mirrored about the throat: at most 2 * 10**6 - 1 rows.
MAX_GRID_POINTS = 10**6
QUAD_REL_TOL, QUAD_ABS_TOL = 1e-10, 1e-12
# Elements a kernel evaluates at once: the panels of the radial integrals
# (module docstring) and the radii of gp3d.solve_matching.
_KERNEL_BLOCK = 1024


@dataclass(frozen=True)
class ShapeFunction:
    """Power-law shape function with throat radius ``b0`` and exponent ``q``."""

    b0: float
    q: float

    def __post_init__(self) -> None:
        _check_throat(self.b0)

    @property
    def throat_class(self) -> str:
        """The throat's class, as reports print it: the metric factor outside
        the throat is positive only for q < 1 ("traversable"), identically
        zero for q = 1 ("degenerate") and negative for q > 1
        ("signature_broken")."""
        if self.q < 1.0:
            return "traversable"
        return "degenerate" if self.q == 1.0 else "signature_broken"


def uniform_grid(start: float, span: float, step: float) -> np.ndarray:
    """start + k*step for k = 0 .. floor(span/step + 1e-9); the slack keeps
    the far end when span/step rounds just below an integer. Neighbours that
    round to one value (a step below their ulp) are a DomainError: this is
    the one collapse check of every table, radial and lab grids alike."""
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    if not span >= 0.0:
        raise DomainError(f"grid span must be non-negative, got {span!r}")
    steps = span / step + 1e-9
    if not steps < MAX_GRID_POINTS:  # before allocating; also inf and nan
        raise DomainError(f"a grid over {span!r} at step {step!r} exceeds "
                          f"{MAX_GRID_POINTS} points")
    grid = start + np.arange(math.floor(steps) + 1) * step
    same = grid[1:] == grid[:-1]
    if same.any():
        k = int(np.argmax(same))
        raise DomainError(f"grid points {k} and {k + 1} both round to {float(grid[k])!r}: "
                          f"step {step!r} is below its ulp")
    return grid


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
                          f"({shape.throat_class})")


def metric_factor(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """1 - b(r)/r = 1 - (b0/r)**(1-q), in [0, 1) outside the throat for q < 1.

    For q > 1 the value is negative for r > b0; callers decide whether a
    broken signature is an error for them.
    """
    r = _check_throat(shape.b0, r)
    # log1p of (r - b0)/b0, exact near the throat, and expm1 keep precision
    # where b(r)/r -> 1.
    return _float_or_array(-np.expm1(-(1.0 - shape.q) * np.log1p((r - shape.b0) / shape.b0)))


def _rise(shape: ShapeFunction, r: float | np.ndarray, what: str) -> np.ndarray:
    """r/b(r) - 1 = (r/b0)**(1-q) - 1 as an array for q < 1 (else a DomainError
    naming WHAT), exact at the throat and scale-free. expm1 amplifies the
    rounding of its argument by about that argument, so the power of r/b0
    is taken from a rise of 1 on (4.4 ulp at q >= -3, expm1 alone 9.3)."""
    _require_traversable(shape, what)
    r = _check_throat(shape.b0, r)
    exponent = 1.0 - shape.q
    rise = np.expm1(exponent * np.log1p((r - shape.b0) / shape.b0))
    return np.where(rise < 1.0, rise, np.power(r / shape.b0, exponent) - 1.0)


@functools.cache
def _gauss_rules() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gauss-Legendre (nodes, weights) on [-1, 1]: the 16-node rule and its
    20-node check, written as the repr of ``numpy.polynomial.legendre``'s
    ``leggauss(16)`` and ``leggauss(20)``, which round-trips bit for bit
    (importing numpy.polynomial to solve for them would cost a process
    milliseconds and 1.7 MB)."""
    return tuple((np.array(nodes), np.array(weights)) for nodes, weights in (
        ([-0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
          -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
          0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
         [0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
          0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
          0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
          0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]),
        ([-0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
          -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
          -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
          0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
          0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095],
         [0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
          0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
          0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
          0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
          0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893]),
    ))


def _integrate_from_throat(integrand: Callable[[np.ndarray], np.ndarray], b0: float,
                           u_targets: float | np.ndarray, one_minus_q: float) -> np.ndarray:
    """Integral of the vectorized ``integrand`` over u from 0 to each of
    ``u_targets``, on Gauss-Legendre panels graded for an integrand that
    turns over at u ~ sqrt(b0/one_minus_q) (module docstring). The result
    has the shape of ``u_targets``; a target of 0 gives exactly 0."""
    u_targets = np.asarray(u_targets, dtype=float)
    graded = [0.0]
    point, turnover = math.sqrt(b0), math.sqrt(b0 / one_minus_q)
    while 0.5 * point > turnover:  # exact halvings, so the doublings below meet sqrt(b0)
        point *= 0.5
    u_max = float(u_targets.max(initial=0.0))
    while point < u_max:
        graded.append(point)
        point *= 2.0
    # Sorted and deduplicated; np.unique would import numpy.ma (~10 ms)
    # on its first call in a process.
    edges = np.concatenate((graded, u_targets.ravel()))
    edges.sort()
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    integral = _integral_at_edges(integrand, b0, edges)
    at = np.searchsorted(edges, u_targets)
    del edges  # one whole-grid array fewer beside the result
    return integral[at]


def _integral_at_edges(integrand: Callable[[np.ndarray], np.ndarray],
                       b0: float, edges: np.ndarray) -> np.ndarray:
    """Integral of ``integrand`` from edges[0] = 0 to each of the sorted
    ``edges``. Each block of panels is integrated by both rules; each
    rule's cumsum over the block starts from its sum carried from the
    block before, so it adds left to right exactly as one cumsum over all
    panels would. The block is checked at once: ConvergenceError at the
    first edge where the two rules disagree (module docstring)."""
    rules = _gauss_rules()
    integral = np.empty(len(edges))
    integral[0] = check_sum = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # module docstring
        for start in range(0, len(edges) - 1, _KERNEL_BLOCK):
            stop = min(start + _KERNEL_BLOCK, len(edges) - 1)
            left, right = edges[start:stop], edges[start + 1:stop + 1]
            half = 0.5 * (right - left)
            mid = 0.5 * (left + right)
            # each rule's sums at the block's edges, led by the carried sum
            sums = integral[start:stop + 1]
            check = np.empty_like(sums)
            check[0] = check_sum
            for (nodes, weights), cumulative in zip(rules, (sums, check)):
                values = integrand(mid + nodes[:, None] * half)   # one row per node
                values *= weights[:, None]
                values.sum(axis=0, out=cumulative[1:])   # row by row, node order
                cumulative[1:] *= half
                np.cumsum(cumulative, out=cumulative)
            check_sum = check[-1]
            failed = ~(np.abs(check - sums)
                       <= np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(sums)))
            if failed.any():
                k = int(np.argmax(failed))
                edge = float(edges[start + k])
                raise ConvergenceError(
                    f"quadrature failed on [{b0!r}, {b0 + edge * edge!r}]: "
                    f"the 16- and 20-node rules give {float(sums[k])!r} and "
                    f"{float(check[k])!r}")
    return integral


def _proper_integrand(u: np.ndarray, b0: float, one_minus_q: float) -> np.ndarray:
    factor = -np.expm1(-one_minus_q * np.log1p(u * u / b0))
    value = 2.0 * u
    value /= np.sqrt(factor, out=factor)  # in place: two node-sized arrays beside u
    return value


def _embedding_integrand(u: np.ndarray, b0: float, one_minus_q: float) -> np.ndarray:
    rise = np.expm1(one_minus_q * np.log1p(u * u / b0))
    over = rise == np.inf
    height = 2.0 * u
    height /= np.sqrt(rise, out=rise)  # as in _proper_integrand
    if over.any():  # module docstring: 1/sqrt(rise) from the log of 1 + u**2/b0
        u = u[over]
        stretch = u * u / b0
        log_stretch = np.where(stretch < np.inf, np.log1p(stretch),
                               2.0 * np.log(u) - math.log(b0))
        height[over] = 2.0 * u * np.exp(-0.5 * one_minus_q * log_stretch)
    return height


def _radial_integral(shape: ShapeFunction, r: float | np.ndarray, what: str,
                     integrand: Callable) -> float | np.ndarray:
    """INTEGRAND(u, b0, 1 - q) integrated from the throat to each radius r, for
    q < 1 (else a DomainError naming WHAT): a float for a float r, else the array."""
    _require_traversable(shape, what)
    radii = _check_throat(shape.b0, r)
    b0, one_minus_q = shape.b0, 1.0 - shape.q
    return _float_or_array(_integrate_from_throat(
        lambda u: integrand(u, b0, one_minus_q), b0, np.sqrt(radii - b0), one_minus_q))


def proper_distance(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """Proper radial distance l(r) >= 0 from the throat to r.

    Zero at the throat and strictly increasing in r; negate it for the
    second branch. A float r gives a float; an array of radii gives the
    array of distances, from one integration.
    """
    return _radial_integral(shape, r, "proper distance", _proper_integrand)


def embedding_height(shape: ShapeFunction, r: float | np.ndarray) -> float | np.ndarray:
    """Height z(r) >= 0 of the embedding surface of revolution.

    The surface is the one in flat cylindrical space whose induced metric
    reproduces the spatial slice, i.e. dz/dr = (r/b(r) - 1)**-1/2. Mirror
    the result to -z for the second sheet. A float r gives a float; an
    array of radii gives the array of heights, from one integration.
    """
    return _radial_integral(shape, r, "embedding", _embedding_integrand)
