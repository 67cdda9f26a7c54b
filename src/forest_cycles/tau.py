"""The multiple-logarithm tree sum and its combinatorial checks.

tau(x1..xm) is the sum, all coefficients +1, of every trivalent planted
plane tree whose leaves are decorated x1..xm left to right and whose root
carries the unit decoration.  There are Catalan(m-1) such trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import List, Tuple

from .formal import FormalSum
from .forest_algebra import (ForestTerm, Leaf, Node, RDecoTree, add_forest,
                             d_contributions, edge_is_internal)
from .symbols import UNIT, DecoSymbol, standard_decorations


@dataclass(frozen=True)
class TauSpec:
    decorations: Tuple[DecoSymbol, ...]

    def __post_init__(self):
        if len(self.decorations) < 2:
            raise ValueError("need at least two decorations")
        if len(set(self.decorations)) != len(self.decorations):
            raise ValueError("decorations must be pairwise distinct")
        if any(x.is_unit for x in self.decorations):
            raise ValueError("decorations must differ from the unit")

    @property
    def m(self) -> int:
        return len(self.decorations)


def standard_spec(m: int) -> TauSpec:
    """The spec on the leaf decorations x1..xm."""
    return TauSpec(standard_decorations(m)[1])


def _binary_shapes(leaves):
    if len(leaves) == 1:
        return [Leaf(leaves[0])]
    shapes = []
    for cut in range(1, len(leaves)):
        for left in _binary_shapes(leaves[:cut]):
            for right in _binary_shapes(leaves[cut:]):
                shapes.append(Node((left, right)))
    return shapes


def tau_trees(spec: TauSpec) -> List[RDecoTree]:
    """All trivalent trees of the sum, in enumeration order."""
    return [RDecoTree(UNIT, top) for top in _binary_shapes(spec.decorations)]


def tau(spec: TauSpec) -> FormalSum:
    out = FormalSum()
    for T in tau_trees(spec):
        add_forest(out, ForestTerm((T,)), 1)
    return out


def _d_tau(spec: TauSpec):
    """One walk over every contraction of every tree of tau: yields each
    tree with its index and its contributions (edge, result, coeff), the
    vanishing ones left out.  Both reports below read this walk."""
    for idx, T in enumerate(tau_trees(spec)):
        yield idx, T, [(p, result, coeff)
                       for _, p, result, coeff in d_contributions(ForestTerm((T,)))
                       if result is not None]


@dataclass
class CancellationReport:
    """Outcome of restricting the differential to internal-edge contractions."""

    m: int
    passed: bool
    pairs: list = field(default_factory=list)  # (repr, [(tree_idx, edge, coeff)])
    residual_terms: int = 0


def _cancellation_report(m: int, walk) -> CancellationReport:
    groups: dict = {}
    for idx, T, contribs in walk:
        for p, result, coeff in contribs:
            if edge_is_internal(T, p):
                groups.setdefault(result, []).append((idx, p, coeff))
    pairs = sorted(((repr(result), contribs) for result, contribs in groups.items()),
                   key=itemgetter(0))
    residual = sum(1 for _, contribs in pairs
                   if sum((c for _, _, c in contribs), Fraction(0)))
    return CancellationReport(m=m, passed=(residual == 0), pairs=pairs,
                              residual_terms=residual)


def check_internal_cancellation(spec: TauSpec) -> CancellationReport:
    """The internal-edge part of d(tau) must vanish identically.

    Groups the individual contraction contributions by their resulting
    canonical forest; every group has to sum to zero.
    """
    return _cancellation_report(spec.m, _d_tau(spec))


@dataclass
class DecomposabilityReport:
    """Tree counts of the surviving terms of d(tau)."""

    m: int
    all_two_trees: bool
    counts: dict = field(default_factory=dict)  # trees-per-term -> #terms
    note: str = ""


def _decomposability_report(m: int, walk) -> DecomposabilityReport:
    # d(tau) summed as ``d`` sums it: tree by tree, each tree's terms first
    dtau = FormalSum()
    for _, _, contribs in walk:
        dT = FormalSum()
        for _, result, coeff in contribs:
            dT.add_term(result, coeff)
        for F, c in dT:
            dtau.add_term(F, c)
    counts: dict = {}
    for F, _ in dtau:
        k = len(F.trees)
        counts[k] = counts.get(k, 0) + 1
    all_two = set(counts) <= {2}
    note = ""
    if m == 2:
        note = ("m=2: leaf-edge contractions at the single trivalent vertex "
                "split into two components as well, so every surviving term "
                "is a product of two trees")
    return DecomposabilityReport(m=m, all_two_trees=all_two,
                                 counts=counts, note=note)


def check_decomposable(spec: TauSpec) -> DecomposabilityReport:
    """Every surviving term of d(tau) should be a product of exactly two
    trees.  Reported, not asserted: callers decide how to treat m = 2,
    where the statement is not part of the trivalent cancellation setup
    (it does in fact hold there too)."""
    return _decomposability_report(spec.m, _d_tau(spec))


def tau_reports(spec: TauSpec):
    """Both reports of ``spec`` from one walk over the contractions."""
    walk = list(_d_tau(spec))
    return (_cancellation_report(spec.m, walk),
            _decomposability_report(spec.m, walk))
