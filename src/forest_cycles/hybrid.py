"""Hybrid algebraic-topological cycles and the extra differential.

A hybrid term is an ordinary cycle term whose monomials may also contain
the ordered topological variables s1 <= ... <= sr in [0,1].  On top of
the algebraic boundary it carries the simplex-boundary differential
delta, the alternating sum over the restrictions s1 = 0, s_{k+1} = s_k
and s_r = 1.

Sign conventions, fixed once and verified by both shipped fixtures:

* the k-th restriction of the fence (k = 0..r, k = 0 meaning s1 = 0 and
  k = r meaning s_r = 1) carries (-1)^k;
* the total differential is D = boundary + (-1)^a delta, applied
  termwise, where a is the number of distinct algebraic parameters of
  the term.

The twist makes D square to zero: delta commutes with the algebraic
boundary restriction by restriction, and every surviving boundary face
eliminates exactly one algebraic parameter, so the twisted cross terms
anticommute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict

from .cycle_algebra import (Coordinate, CycleTerm, FormalSum, OutOfClassError,
                            Monomial, add_cycle, boundary, dimension)
from .serialize import cycle_sum_from_json
from .symbols import KIND_PARAM, KIND_TOP, topological


def topological_dimension(t: CycleTerm) -> int:
    return len(t.top_syms)


def _check_contiguous(t: CycleTerm) -> int:
    tops = t.top_syms
    r = len(tops)
    if [s.index for s in tops] != list(range(1, r + 1)):
        raise ValueError(f"topological variables of {t} are not s1..s{r}")
    return r


def _subst_top(coords, old, new):
    repl = Monomial(((new, 1),))
    out = []
    for c in coords:
        q = c.q.substitute(old, repl)
        out.append(c if q is c.q else Coordinate(q, c.one_minus))
    return out


def _drop_top(coords, sym):
    # set the variable to 1 by erasing it
    return [Coordinate(c.q.without(sym), c.one_minus) for c in coords]


def _reindex_down(coords, start):
    # s_j -> s_{j-1} for j >= start
    out = coords
    for j in range(start, max((s.index for c in coords for s in c.q.syms_of_kind(KIND_TOP)),
                              default=0) + 1):
        out = _subst_top(out, topological(j), topological(j - 1))
    return out


def delta_term(t: CycleTerm) -> FormalSum:
    """The simplex-boundary fence of one term."""
    out = FormalSum()
    r = _check_contiguous(t)
    if r == 0:
        return out
    s1 = topological(1)
    # k = 0: s1 = 0.  Any coordinate containing s1 with positive exponent
    # becomes the constant 1, so the restriction is empty; a negative
    # exponent would blow up and leave the class.
    for c in t.coords:
        if c.q.exp_of(s1) < 0:
            raise OutOfClassError(f"s1 -> 0 blows up coordinate {c}")
    for k in range(1, r):
        merged = _subst_top(t.coords, topological(k + 1), topological(k))
        merged = _reindex_down(merged, k + 2)
        add_cycle(out, merged, (-1) ** k)
    add_cycle(out, _drop_top(t.coords, topological(r)), (-1) ** r)
    return out


def delta(S: FormalSum) -> FormalSum:
    return S.bind(delta_term)


def D(S: FormalSum) -> FormalSum:
    """Total differential: boundary plus the parameter-count twist of delta."""
    out = boundary(S)
    for t, c in S:
        twist = -1 if dimension(t) % 2 == 1 else 1
        for t2, c2 in delta_term(t):
            out.add_term(t2, c * c2 * twist)
    return out


# ---------------------------------------------------------------------------
# negligible terms

def has_constant_coordinate(t: CycleTerm) -> bool:
    return any(not c.q.syms_of_kind(KIND_PARAM) and not c.q.syms_of_kind(KIND_TOP)
               for c in t.coords)


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
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    owners: Dict[object, int] = {}
    topful = []
    for i, c in enumerate(t.coords):
        for p in c.q.syms_of_kind(KIND_PARAM):
            if p in owners:
                union(owners[p], i)
            else:
                owners[p] = i
        if c.q.syms_of_kind(KIND_TOP):
            topful.append(i)
    for i in topful[1:]:
        union(topful[0], i)
    roots = {find(i) for i in range(n)}
    return len(roots) > 1


def is_negligible(t: CycleTerm) -> bool:
    """Terms that cannot contribute to the extracted integral: either a
    coordinate is constant (its pullback 1-form vanishes) or the term is
    topologically decomposable."""
    return has_constant_coordinate(t) or is_topologically_decomposable(t)


# ---------------------------------------------------------------------------
# bounding verification

@dataclass
class BoundingReport:
    passed: bool
    residual: list = field(default_factory=list)   # (term, coeff, reason)
    offending: list = field(default_factory=list)  # non-negligible residual terms

    def summary(self) -> str:
        lines = [f"bounding check: {'pass' if self.passed else 'FAIL'}"]
        for term, coeff, reason in self.residual:
            lines.append(f"  negligible {coeff} * {term}  ({reason})")
        for term, coeff in self.offending:
            lines.append(f"  NOT negligible {coeff} * {term}")
        return "\n".join(lines)


def verify_bounding(chain: FormalSum, target: FormalSum) -> BoundingReport:
    """Assert D(chain) - target consists of negligible terms only."""
    residual = D(chain) - target
    report = BoundingReport(passed=True)
    for t, c in sorted(residual, key=lambda tc: str(tc[0])):
        if has_constant_coordinate(t):
            report.residual.append((t, c, "constant coordinate"))
        elif is_topologically_decomposable(t):
            report.residual.append((t, c, "topologically decomposable"))
        else:
            report.passed = False
            report.offending.append((t, c))
    return report


def topological_part(chain: FormalSum) -> FormalSum:
    """Terms with no algebraic parameter and at least one topological one."""
    out = FormalSum()
    for t, c in chain:
        if dimension(t) == 0 and t.top_syms:
            out.add_term(t, c)
    return out


# ---------------------------------------------------------------------------
# fixtures

def load_fixture(name: str):
    """Load a shipped bounding fixture.

    Returns (chain, target, meta); meta holds the numeric evaluation
    point and the tree-sum cross-check data.
    """
    if name not in ("double_log", "triple_log"):
        raise ValueError(f"unknown fixture {name!r}")
    data = json.loads(resources.files("forest_cycles")
                      .joinpath("fixtures").joinpath(f"{name}.json").read_text())
    chain = cycle_sum_from_json(data["chain"])
    target = cycle_sum_from_json(data["target"])
    meta = {k: data[k] for k in data if k not in ("chain", "target")}
    return chain, target, meta
