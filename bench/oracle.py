"""Reference values that the benchmark computes apart from the package.

Each check here reaches its answer by another route than the code it
checks: counting, a closed form, or an mpmath sum at 30 digits.
"""

from __future__ import annotations

import math


class Wrong(Exception):
    """A package output failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def parameter_count(term) -> int:
    """Distinct algebraic parameters of a cycle term, read off the
    coordinates rather than through ``dimension``."""
    return len({s for c in term.coords for s, _ in c.q.exps if s.kind == "param"})


def check_tree_image(term, m: int) -> None:
    """A trivalent tree on m leaves has 2m-1 edges and m-1 internal
    vertices, so its image has 2m-1 coordinates and m-1 parameters."""
    require(len(term.coords) == 2 * m - 1,
            f"image has {len(term.coords)} coordinates, expected {2 * m - 1}")
    require(parameter_count(term) == m - 1,
            f"image has {parameter_count(term)} parameters, expected {m - 1}")


def equal_argument_integral(x: float, m: int) -> float:
    """With all x_i = x the simplex integral is the m-th power of the
    depth-one integral over m!, and the depth-one integral of dt/(t-x)
    over [0, 1] is log((x-1)/x)."""
    return math.log((x - 1.0) / x) ** m / math.factorial(m)


def nested_sum(z, digits: int = 30) -> complex:
    """sum over 0 < k1 < ... < km of prod z_i**k_i / k_i, at ``digits``.

    The sum is cut at K where max|z|**K drops below 10**-(digits + 5).
    Every dropped term has its last index above K, so for |z_i| <= 0.6
    the dropped tail is of that order, far below the digits compared.
    """
    import mpmath

    with mpmath.workdps(digits + 10):
        zs = [mpmath.mpc(v) for v in z]
        rmax = max(abs(complex(v)) for v in z)
        cut = math.ceil((digits + 5) / -math.log10(rmax)) + len(zs) + 1
        # below[k] = sum over k1 < ... < k(j-1) < k of the first j-1 factors
        below = [mpmath.mpf(1)] * (cut + 1)
        for v in zs:
            term = [mpmath.mpc(0)] * (cut + 1)
            power = mpmath.mpc(1)
            for k in range(1, cut + 1):
                power *= v
                term[k] = power / k * below[k]
            running = mpmath.mpc(0)
            for k in range(cut + 1):
                below[k] = running
                running += term[k]
        return complex(running)
