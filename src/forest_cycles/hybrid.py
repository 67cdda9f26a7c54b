"""Hybrid algebraic-topological cycles and the extra differential.

A hybrid term is an ordinary cycle term whose monomials may also contain
the ordered topological variables s1 <= ... <= sr in [0,1].  On top of
the algebraic boundary it carries the simplex-boundary differential
delta, the alternating sum over the restrictions s1 = 0, s_{k+1} = s_k
and s_r = 1.  Past s1 = 0, which empties a term or leaves the class,
each restriction is one ``Coordinate.rename`` of every coordinate.

Sign conventions, fixed once and verified by both shipped fixtures:

* the k-th restriction of the fence (k = 0..r, k = 0 meaning s1 = 0 and
  k = r meaning s_r = 1) carries (-1)^k;
* the total differential is D = boundary + (-1)^a delta, applied
  termwise, where a is the number of distinct algebraic parameters of
  the term.

``delta`` and ``D`` add the fences of a sum in one loop, ``_add_fences``;
only ``D`` applies the twist.

The twist makes D square to zero: delta commutes with the algebraic
boundary restriction by restriction, and every surviving boundary face
eliminates exactly one algebraic parameter, so the twisted cross terms
anticommute.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .cycle_algebra import (CycleTerm, FormalSum, OutOfClassError, boundary, cycle_sum,
                            dimension)
from .serialize import cycle_sum_from_json, listed
from .symbols import RANK_CONST, RANK_PARAM, RANK_TOP, topological


def _restriction(coords, k: int, r: int) -> list:
    """The k-th restriction (1 <= k <= r) as one ``Coordinate.rename``: s_j -> s_{j-1}
    for j > k if k < r, adding merged exponents, else s_r -> None (s_r = 1)."""
    if k < r:
        image = {topological(j): topological(j - 1) for j in range(k + 1, r + 1)}
    else:
        image = {topological(r): None}
    return [c.rename(image) for c in coords]


def delta_term(t: CycleTerm) -> FormalSum:
    """The simplex-boundary fence of one term, its restrictions in one
    ``cycle_sum``, since they share most coordinates."""
    indices = [s.index for s in t.top_syms]  # one walk of the term, as nothing caches it
    r = len(indices)
    if indices != list(range(1, r + 1)):
        raise ValueError(f"topological variables of {t} are not s1..s{r}")
    s1 = topological(1)
    # k = 0: s1 = 0.  Any coordinate containing s1 with positive exponent
    # becomes the constant 1, so the restriction is empty; a negative
    # exponent would blow up and leave the class.
    for c in t.coords:
        if c.q.exp_of(s1) < 0:
            raise OutOfClassError(f"s1 -> 0 blows up coordinate {c}")
    return cycle_sum((_restriction(t.coords, k, r), (-1) ** k) for k in range(1, r + 1))


def _add_fences(out: FormalSum, S: FormalSum, twist: bool) -> FormalSum:
    """out plus the fence of each term of S by its coefficient, the
    coefficient negated on a term of odd dimension if ``twist``."""
    for t, c in S:
        if twist and dimension(t) % 2:
            c = -c
        for t2, c2 in delta_term(t):
            out.add_term(t2, c * c2)
    return out


def delta(S: FormalSum) -> FormalSum:
    return _add_fences(FormalSum(), S, False)


def D(S: FormalSum) -> FormalSum:
    """Total differential: boundary plus the parameter-count twist of delta."""
    return _add_fences(boundary(S), S, True)


# ---------------------------------------------------------------------------
# negligible terms

def has_constant_coordinate(t: CycleTerm) -> bool:
    # pairs are in symbol order: the last symbol has the highest kind rank
    return any(not q or q[-1][0][0] == RANK_CONST for q, _ in t.coords)


def is_topologically_decomposable(t: CycleTerm) -> bool:
    """True when the coordinate linkage graph is disconnected.

    Coordinates are linked when they share an algebraic parameter, or when
    both contain topological variables (those all live on one simplex).
    A disconnected term is a product of lower-dimensional cycles and
    integrates to zero against the top volume form, so it cannot carry
    the multiple-logarithm period.  Only terms that involve at least one
    topological variable qualify; the purely algebraic side has its own
    notion of decomposability that plays no role here.
    """
    n = t.n
    if n <= 1 or not t.top_syms:
        return False
    # links: the parameters, plus one token for any topological variable
    links = [{s if s[0] == RANK_PARAM else RANK_TOP for s, _ in q if s[0] != RANK_CONST}
             for q, _ in t.coords]
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j not in reached and links[i] & links[j]:
                reached.add(j)
                todo.append(j)
    return len(reached) < n


def negligible_reason(t: CycleTerm) -> str | None:
    """Why t cannot contribute to the extracted integral, or None when it
    can: a coordinate is constant (its pullback 1-form vanishes), else the
    term is topologically decomposable."""
    if has_constant_coordinate(t):
        return "constant coordinate"
    if is_topologically_decomposable(t):
        return "topologically decomposable"
    return None


# ---------------------------------------------------------------------------
# bounding verification

class BoundingReport(NamedTuple):
    passed: bool
    residual: list   # (term, coeff, reason)
    offending: list  # non-negligible residual terms


def verify_bounding(chain: FormalSum, target: FormalSum) -> BoundingReport:
    """Assert D(chain) - target consists of negligible terms only."""
    residual, offending = [], []
    for t, c in listed(D(chain) - target):
        reason = negligible_reason(t)
        if reason is None:
            offending.append((t, c))
        else:
            residual.append((t, c, reason))
    return BoundingReport(not offending, residual, offending)


def topological_part(chain: FormalSum) -> FormalSum:
    """Terms with no algebraic parameter and at least one topological one."""
    out = FormalSum()
    for t, c in chain:
        if dimension(t) == 0 and t.top_syms:
            out.add_term(t, c)
    return out


# ---------------------------------------------------------------------------
# fixtures

FIXTURES = ("double_log", "triple_log")  # the shipped bounding fixtures


def load_fixture(name: str):
    """Load a shipped bounding fixture.

    Returns (chain, target, meta); meta holds the numeric evaluation
    point and the tree-sum cross-check data.
    """
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}")
    from importlib import resources  # here: only a fixture load pays for pathlib and tempfile

    data = json.loads(resources.files("forest_cycles")
                      .joinpath("fixtures").joinpath(f"{name}.json").read_text())
    chain = cycle_sum_from_json(data["chain"])
    target = cycle_sum_from_json(data["target"])
    meta = {k: data[k] for k in data if k not in ("chain", "target")}
    return chain, target, meta
