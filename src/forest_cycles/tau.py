"""The multiple-logarithm tree sum and its differential in closed form.

tau(r; B) is the sum, all coefficients +1, of every trivalent planted
plane tree whose leaves carry the block B left to right and whose root
carries r; tau(x1..xm) = tau(1; x1..xm) has Catalan(m-1) trees.  The
internal-edge contractions of d(tau) cancel, and with x_{m+1} the unit
the rest is the tree-level linearized coproduct of Goncharov's
I(0; x1..xm; 1), summed over the proper blocks B = x_i..x_j with C the
other leaves:

    d tau(1; x1..xm) = sum_B tau(1; C) tau(x_{j+1}; B)
                             - [i > 1] tau(1; C) tau(x_{i-1}; B).
"""

from __future__ import annotations

from collections import Counter
from typing import List, NamedTuple, Tuple

from .formal import FormalSum
from .forest_algebra import (ForestTerm, Leaf, Node, RDecoTree, add_forest,
                             d_contributions, forest_sum)
from .symbols import UNIT, DecoSymbol, standard_decorations

MAX_TREES = 250_000  # per sum: m = 13 (208,012 trees) is the largest m within it


def check_tree_budget(m: int) -> None:
    """Refuse m decorations whose Catalan(m - 1) trees exceed MAX_TREES."""
    trees = 1
    for n in range(1, m):  # trees = Catalan(n)
        trees = trees * (4 * n - 2) // (n + 1)
        if trees > MAX_TREES:
            raise ValueError(f"tau over {m} decorations has more than {MAX_TREES} trees")


class _TauSpec(NamedTuple):
    decorations: Tuple[DecoSymbol, ...]


class TauSpec(_TauSpec):
    """The leaf decorations of a tree sum, checked at construction;
    ``_replace`` and ``_make`` would skip the check, so nothing calls them."""

    __slots__ = ()

    def __new__(cls, decorations: Tuple[DecoSymbol, ...]):
        if len(decorations) < 2:
            raise ValueError("need at least two decorations")
        if len(set(decorations)) != len(decorations):
            raise ValueError("decorations must be pairwise distinct")
        if any(x.is_unit for x in decorations):
            raise ValueError("decorations must differ from the unit")
        check_tree_budget(len(decorations))
        return _TauSpec.__new__(cls, decorations)

    @property
    def m(self) -> int:
        return len(self.decorations)


def standard_spec(m: int) -> TauSpec:
    """The spec on the leaf decorations x1..xm."""
    check_tree_budget(m)
    return TauSpec(standard_decorations(m))


def _binary_shapes(leaves):
    if len(leaves) == 1:
        return [Leaf(leaves[0])]
    shapes = []
    for cut in range(1, len(leaves)):
        for left in _binary_shapes(leaves[:cut]):
            for right in _binary_shapes(leaves[cut:]):
                shapes.append(Node((left, right)))
    return shapes


def block_trees(root: DecoSymbol, leaves) -> List[RDecoTree]:
    """The trees of tau(root; leaves); one leaf gives one single-edge tree."""
    return [RDecoTree(root, top) for top in _binary_shapes(tuple(leaves))]


def tau_trees(spec: TauSpec) -> List[RDecoTree]:
    """All trivalent trees of the sum, in enumeration order."""
    return block_trees(UNIT, spec.decorations)


def tau(spec: TauSpec) -> FormalSum:
    return forest_sum((ForestTerm((T,)), 1) for T in tau_trees(spec))


def d_tau_parts(spec: TauSpec) -> Tuple[FormalSum, FormalSum]:
    """d(tau) as its internal-edge part and the rest, from one walk.  Of
    the contractions of one tree only an internal edge leaves one tree:
    the root edge plants two or more children, a leaf edge leaves a
    branch."""
    internal, rest = FormalSum(), FormalSum()
    for T in tau_trees(spec):
        for _, _, result, coeff in d_contributions(ForestTerm((T,))):
            if result is not None:
                (internal if len(result.trees) == 1 else rest).add_term(result, coeff)
    return internal, rest


def d_tau_closed_form(spec: TauSpec) -> FormalSum:
    """The block sum above; each tau(1; C) tau(1; B) comes only from the
    block that ends at x_m."""
    xs = spec.decorations + (UNIT,)
    m = spec.m
    out = FormalSum()
    for i in range(m):
        for j in range(i, m - (i == 0)):  # the proper blocks x_i..x_j
            outer = block_trees(UNIT, xs[:i] + xs[j + 1:m])
            for root, sign in [(xs[j + 1], 1)] + ([(xs[i - 1], -1)] if i else []):
                for inner in block_trees(root, xs[i:j + 1]):
                    for T in outer:
                        add_forest(out, ForestTerm((T, inner)), sign)
    return out


class CancellationReport(NamedTuple):
    """Outcome of restricting the differential to internal-edge contractions."""
    m: int
    passed: bool
    residual_terms: int = 0


def check_internal_cancellation(spec: TauSpec) -> CancellationReport:
    """The internal-edge part of d(tau) must vanish identically."""
    internal, _ = d_tau_parts(spec)
    return CancellationReport(m=spec.m, passed=internal.is_zero(),
                              residual_terms=len(internal))


class DecomposabilityReport(NamedTuple):
    """Tree counts of the terms of d(tau)."""
    m: int
    all_two_trees: bool
    counts: dict  # trees-per-term -> #terms


def check_decomposable(spec: TauSpec) -> DecomposabilityReport:
    """Every term of d(tau) should be a product of exactly two trees."""
    internal, rest = d_tau_parts(spec)
    counts = dict(Counter(len(F.trees) for part in (rest, internal) for F, _ in part))
    return DecomposabilityReport(m=spec.m, all_two_trees=set(counts) <= {2},
                                 counts=counts)
