"""The forest cycling map from R-deco forests to cycle sums.

Every internal vertex of a tree receives a fresh algebraic parameter,
numbered by depth-first order so output is reproducible.  Every edge
contributes the coordinate 1 - y_near/y_far, where near is the endpoint
closer to the root and y is the decoration (for external vertices, with
the unit contributing no factor) or the parameter (for internal ones).
The edges come in canonical edge order from ``forest_algebra.flatten``,
the one walk of a tree, and ``raw_image`` alone builds the coordinates
of a tree list: each internal vertex is numbered as its edge is listed,
the trees in blocks one after another, and each ratio is a monomial of
at most two symbols in order.
The ratio orientation is fixed by the two classical displayed cycles
this map must reproduce: the weight-two cycle [1-1/u, 1-u/x1, 1-u/x2]
and its weight-three analogue.
"""

from __future__ import annotations

from typing import Optional

from .cycle_algebra import (Coordinate, CycleTerm, FormalSum, Monomial, ONE, _new,
                            _parameters, cycle_sum)
from .forest_algebra import Leaf, RDecoTree, flatten
from .symbols import constant


def _edge_monomial(near, far) -> Monomial:
    """near/far for two vertex symbols, None standing for the unit."""
    if near == far:
        return ONE  # both the unit, or a root decoration met again at its leaf
    if far is None:
        return _new(Monomial, ((near, 1),))
    if near is None:
        return _new(Monomial, ((far, -1),))
    return _new(Monomial, ((near, 1), (far, -1)) if near < far else ((far, -1), (near, 1)))


class _DecoSymbols(dict):
    """The constant symbol of each decoration met in one call, None for
    the unit, made on a miss."""

    __slots__ = ()

    def __missing__(self, deco):
        s = self[deco] = None if deco.is_unit else constant(deco.name)
        return s


def raw_image(trees, symbols: Optional[_DecoSymbols] = None, roots=None) -> list:
    """The coordinates of the trees' image, unnormalized: the trees in
    the given order, each in canonical edge order, so coordinate k is
    edge k.  Each tree takes the next block of parameters, which maps a
    product of trees to the concatenation of their images.

    ``flatten`` lists the far vertices in edge order.  An internal one
    takes the next parameter, which numbers a block in preorder, and is
    the near vertex of the edges below it until its closing entry.
    ``symbols`` is the caller's table of decoration symbols; ``roots``,
    when given, holds each tree's root symbol in place of its decoration's.
    """
    if symbols is None:
        symbols = _DecoSymbols()
    coords, next_param = [], 1
    for i, tree in enumerate(trees):
        entries = list(flatten(tree[2]))
        names = _parameters(next_param + len(entries) // 2)  # a node has two entries
        nears = [symbols[tree[1]] if roots is None else roots[i]]
        for x in entries:
            if type(x) is Leaf:
                coords.append(_new(Coordinate, (_edge_monomial(nears[-1], symbols[x[1]]), True)))
            elif type(x) is int:  # a node opens
                nears.append(names[next_param])
                next_param += 1
                coords.append(_new(Coordinate, (_edge_monomial(nears[-2], nears[-1]), True)))
            else:  # a node closes
                nears.pop()
    return coords


def phi_tree(T: RDecoTree) -> CycleTerm:
    """Image of a single tree, coordinates in canonical edge order.

    The raw (unnormalized) term is returned so that the coordinate list
    reads exactly like the edge list of the tree; sums go through
    ``phi``, which canonicalizes.  Non-generic trees are mapped too; the
    admissibility guarantee is simply void for them.
    """
    return CycleTerm(tuple(raw_image((T,))))


def phi(S: FormalSum) -> FormalSum:
    """Linear extension to forest sums, through ``raw_image`` with one
    table of decoration symbols a call."""
    symbols = _DecoSymbols()
    return cycle_sum((raw_image(F.trees, symbols), c * F.sign) for F, c in S)
