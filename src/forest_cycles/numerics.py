"""Floating-point verification layer.

Provides the truncated multiple-logarithm series, the iterated integral
over the ordered simplex, the variable change linking the two, numeric
evaluation of purely topological cycle terms, and a finite-difference
check of the weight-two differential identity.

The series and the integral satisfy I(x) = (-1)^m Li(z(x)) for depth m;
both quantities are exposed unnormalized and the sign relation is
checked by ``checks.integral_vs_series`` rather than hidden inside
either function.

numpy is imported inside ``simplex_integral`` and ``_integration_matrix``,
after the integral's input checks, and nowhere else in the package.  So
the exact commands (``tau``, ``phi``, ``eval series`` and every ``verify``
suite but ``numeric``) never load it, while ``verify numeric``, ``verify
all`` and ``eval integral|compare`` load it at their first integral.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Sequence

from .cycle_algebra import CycleTerm
from .formal import FormalSum, perm_parity
from .symbols import RANK_CONST, RANK_PARAM, RANK_TOP


# Building the integration matrix holds four n x n float64 arrays at its
# peak, for n = 2q grid points; a context refuses any larger order q, so
# the check runs before any array exists.
INTEGRATION_MEMORY_BUDGET = 256 * 2 ** 20  # bytes
MAX_QUADRATURE_ORDER = math.isqrt(INTEGRATION_MEMORY_BUDGET // (4 * 8)) // 2

POLYDISC_MARGIN = 1e-6  # the series refuses an argument with |z| > 1 - margin
SERIES_TERMS = 400  # the series sums the indices k <= SERIES_TERMS


class _NumericContext(NamedTuple):
    quadrature_order: int
    tolerance: float


class NumericContext(_NumericContext):
    """The quadrature order and the tolerance, checked at construction;
    ``_replace`` and ``_make`` would skip the check, so nothing calls them."""

    __slots__ = ()

    def __new__(cls, quadrature_order: int = 32, tolerance: float = 1e-8):
        if quadrature_order < 2:
            raise ValueError("quadrature order must be >= 2")
        if quadrature_order > MAX_QUADRATURE_ORDER:
            raise ValueError(
                f"quadrature order {quadrature_order} exceeds "
                f"{MAX_QUADRATURE_ORDER}, the limit of the "
                f"{INTEGRATION_MEMORY_BUDGET >> 20} MB memory budget")
        if not tolerance > 0:  # NaN included
            raise ValueError("tolerance must be positive")
        if tolerance == math.inf:  # every truncation would pass
            raise ValueError("tolerance must be finite")
        return _NumericContext.__new__(cls, quadrature_order, tolerance)


DEFAULT_CTX = NumericContext()


def li1(z: float) -> float:
    """-log(1 - z), the depth-one closed form for real z < 1."""
    return -math.log1p(-z)


def multiple_log_series(z: Sequence[complex], ctx: NumericContext = DEFAULT_CTX) -> complex:
    """Nested sum over 0 < k1 < ... < km <= SERIES_TERMS of prod z_i^{k_i}/k_i.

    Raises when an argument leaves the guarded polydisc (a NaN argument
    included) or when the tail bound exceeds the context tolerance.
    """
    zs = [complex(v) for v in z]
    if not zs:
        raise ValueError("need at least one argument")
    K = SERIES_TERMS
    for v in zs:
        if not abs(v) <= 1 - POLYDISC_MARGIN:
            raise ValueError(f"|z| = {abs(v)} outside the polydisc guard")
    # tail bound: the first m-1 factors are bounded by Li1 of the moduli,
    # the last index beyond K contributes a geometric tail
    zm = abs(zs[-1])
    tail = math.prod(li1(abs(v)) for v in zs[:-1]) * zm ** (K + 1) / ((K + 1) * (1 - zm))
    if tail > ctx.tolerance:
        raise ValueError(f"truncation K={K} insufficient: tail bound {tail:.3e}")
    # prev[k]: the sum so far with last index k, from the empty product 1 at k = 0
    prev = [1] + [0] * K
    for v in zs:
        cur = [0j] * (K + 1)
        p = 1.0 + 0j
        running = 0j
        for k in range(1, K + 1):
            p *= v
            running += prev[k - 1]
            cur[k] = p / k * running
        prev = cur
    return sum(prev)


def z_from_x(x: Sequence[float]) -> list:
    """z_m = 1/x_m, z_i = x_{i+1}/x_i."""
    xs = list(x)
    if any(v == 0 for v in xs):
        raise ValueError("zero entry")
    return [b / a for a, b in zip(xs, xs[1:])] + [1.0 / xs[-1]]


def x_from_z(z: Sequence[float]) -> list:
    """x_i = 1/(z_i * ... * z_m)."""
    zs = list(z)
    if any(v == 0 for v in zs):
        raise ValueError("zero entry")
    out = []
    acc = 1.0
    for v in reversed(zs):
        acc *= v
        out.append(1.0 / acc)
    out.reverse()
    return out


def _integration_matrix(t: np.ndarray) -> np.ndarray:
    """Q with (Q @ f)[j] = integral from 0 to t_j of the interpolant of f.

    t holds the Chebyshev-Lobatto points of [0, 1], t_0 = 0 and t_{n-1} = 1.
    On u = 2t - 1 the antiderivative of T_k is T_{k+1}/(2(k+1)) -
    T_{k-1}/(2(k-1)), with T_0 -> T_1 and T_1 -> T_2/4; rows are then
    shifted to vanish at u = -1, mapped back from coefficients to values
    by one solve, and halved for dt = du/2.
    """
    import numpy as np

    n = len(t)
    k = np.arange(n)
    vander = np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, n)
    anti = vander[:, 1:] / (2.0 * (k + 1))
    anti[:, 2:] -= vander[:, 1:n - 1] / (2.0 * (k[2:] - 1))
    anti[:, 0] = vander[:, 1]
    anti -= anti[0]
    return np.linalg.solve(vander[:, :n].T, anti.T).T / 2.0


def simplex_integral(x: Sequence[float], ctx: NumericContext = DEFAULT_CTX) -> float:
    """Integral over 0 <= t1 <= ... <= tm <= 1 of prod dt_i/(t_i - x_i).

    Spectral recursion F_k(s) = int_0^s F_{k-1}(t) dt/(t - x_k), F_0 = 1,
    carried on n = 2q Chebyshev-Lobatto points of [0, 1] for
    q = ctx.quadrature_order.  Each step integrates the degree-(2q - 1)
    interpolant exactly, as the q-point Gauss rule would; the depth-m
    integral costs O(m q^2) time and O(q^2) memory.  All x_i (no NaN) must
    lie outside [0,1] so the integrand stays smooth on the closed simplex.
    """
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError("need at least one x")
    for v in xs:
        if not (v < 0.0 or v > 1.0):
            raise ValueError(f"singular integrand: x = {v} is not outside [0,1]")
    import numpy as np  # here, after the checks: the exact engine never loads it

    n = 2 * ctx.quadrature_order
    t = (1.0 - np.cos(np.pi * np.arange(n) / (n - 1))) / 2.0
    Q = _integration_matrix(t)
    F = np.ones(n)
    for v in xs:
        F = Q @ (F / (t - v))
    return float(F[-1])


def integral_with_error(x: Sequence[float], ctx: NumericContext = DEFAULT_CTX):
    """(value, error): the simplex integral at the context's order and its
    self-estimate, the difference against the doubled order.  The doubled
    order is checked first, so an order over the limit is refused before
    any integral is computed."""
    finer = NumericContext(2 * ctx.quadrature_order, ctx.tolerance)
    value = simplex_integral(x, ctx)
    return value, abs(value - simplex_integral(x, finer))


def integral_error_estimate(x: Sequence[float], ctx: NumericContext = DEFAULT_CTX) -> float:
    """Self-estimate: difference against the doubled quadrature order."""
    return integral_with_error(x, ctx)[1]


def eval_topological_cycle(t: CycleTerm, assignment: Dict[str, float],
                           ctx: NumericContext = DEFAULT_CTX) -> float:
    """Integral of a purely topological term against the volume form.

    Every coordinate must have the shape 1 - s_k * C with C a constant
    monomial; it contributes the factor ds_k/(s_k - 1/C).  The variables
    s_1..s_r must each appear exactly once.  Reordering the coordinates
    into simplex order contributes the permutation sign.  The classical
    normalization by (2*pi*i)^{-r} is not applied here.
    """
    entries = []
    for c in t.coords:
        if not c.one_minus:
            raise ValueError("unsupported coordinate shape: bare monomial")
        if any(s[0] == RANK_PARAM for s, _ in c.q):
            raise ValueError("term still contains algebraic parameters")
        tops = [(s, e) for s, e in c.q if s[0] == RANK_TOP]
        if len(tops) != 1 or tops[0][1] != 1:
            raise ValueError(f"unsupported coordinate shape: {c}")
        cval = 1.0
        for s, e in c.q:
            if s[0] == RANK_CONST:
                if s.name not in assignment:
                    raise ValueError(f"no value assigned to constant {s.name}")
                cval *= assignment[s.name] ** e
        entries.append((tops[0][0].index, 1.0 / cval))
    indices = [i for i, _ in entries]
    r = len(entries)
    if sorted(indices) != list(range(1, r + 1)):
        raise ValueError("each s_k must appear exactly once with contiguous indices")
    sign = perm_parity([i - 1 for i in indices])
    xs = [x for _, x in sorted(entries)]
    return sign * simplex_integral(xs, ctx)


def eval_topological_sum(S: FormalSum, assignment: Dict[str, float],
                         ctx: NumericContext = DEFAULT_CTX) -> float:
    total = 0.0
    for t, c in S:
        total += float(c) * eval_topological_cycle(t, assignment, ctx)
    return total


def diff_li11_coefficients(x: float, y: float):
    """Closed-form coefficients of the weight-two differential identity.

    d Li_{1,1}(x, y) = A(x, y) dx + B(x, y) dy with
        A = (Li1(y) - Li1(xy)/x) / (1 - x)
        B = Li1(xy) / (1 - y).
    Li1 is -log1p(-z), so Li1(xy)/x loses no digits as x -> 0; its limit
    at x = 0 is y, so A(0, y) = Li1(y) - y.
    """
    quotient = y if x == 0 else li1(x * y) / x
    return (li1(y) - quotient) / (1 - x), li1(x * y) / (1 - y)


def check_diffLi(x: float, y: float, ctx: NumericContext = DEFAULT_CTX) -> float:
    """Max residual of central finite differences of the series, step
    1e-4, which refuses a perturbed point off the polydisc, against the
    closed form."""
    h = 1e-4
    def li11(*z):
        return multiple_log_series(z, ctx).real
    fdx = (li11(x + h, y) - li11(x - h, y)) / (2 * h)
    fdy = (li11(x, y + h) - li11(x, y - h)) / (2 * h)
    a, b = diff_li11_coefficients(x, y)
    return max(abs(fdx - a), abs(fdy - b))
