"""Shared builders for the test modules."""

import itertools
import random

from forest_cycles import (Coordinate, CycleTerm, ForestTerm, Leaf, Node,
                           RDecoTree, deco, monomial)
from forest_cycles.cycle_algebra import cycle_sum
from forest_cycles.forest_algebra import edge_count
from forest_cycles.forest_cycling import _tree_coords
from forest_cycles.symbols import UNIT, sym_from_name, topological


def lf(name):
    return Leaf(deco(name))


def nd(*children):
    return Node(tuple(children))


def tr(root, top):
    return RDecoTree(deco(root), top)


def forest(*trees, sign=1):
    return ForestTerm(tuple(trees), sign)


def mono(**exps):
    # names are resolved by shape: u<digits> parameter, s<digits>
    # topological, anything else a symbolic constant
    return monomial({sym_from_name(k): v for k, v in exps.items()})


def om(**exps):
    return Coordinate(mono(**exps), True)


def bare(**exps):
    return Coordinate(mono(**exps), False)


def ct(*coords):
    return CycleTerm(tuple(coords))


def csum(*entries):
    return cycle_sum(entries)


def two_leaf_tree():
    return tr("1", nd(lf("x1"), lf("x2")))


def left_comb3():
    return tr("1", nd(nd(lf("x1"), lf("x2")), lf("x3")))


def right_comb3():
    return tr("1", nd(lf("x1"), nd(lf("x2"), lf("x3"))))


def generic_tree(rng: random.Random, budget: int, names, max_children: int = 3) -> RDecoTree:
    """Tree of at most ``budget`` edges whose leaves all carry fresh names
    from ``names``; an internal vertex has 2..max_children children."""
    def build(edges, stop):
        # edges available to the subtree, counting the edge above it
        if edges < 3 or rng.random() < stop:
            return Leaf(deco(next(names)))
        arity = rng.randint(2, min(max_children, edges - 1))
        shares = [1] * arity
        for _ in range(edges - 1 - arity):
            shares[rng.randrange(arity)] += 1
        return Node(tuple(build(s, 0.3) for s in shares))

    root = UNIT if rng.random() < 0.5 else deco(next(names))
    return RDecoTree(root, build(budget, 0.0))


def generic_forest(rng: random.Random, max_edges: int, max_trees: int = 3,
                   max_children: int = 4) -> ForestTerm:
    """Forest of 1..max_trees generic trees with at most ``max_edges``
    edges in all, every name fresh: no leaf repeats a root, so ``phi`` and
    its boundary stay in the monomial class."""
    names = (f"y{i}" for i in itertools.count(1))
    trees = []
    left = max_edges
    for _ in range(rng.randint(1, max_trees)):
        if left < 1:
            break
        T = generic_tree(rng, rng.randint(1, left), names, max_children)
        trees.append(T)
        left -= edge_count(T)
    return ForestTerm(tuple(trees))


def hybrid_image(rng: random.Random, max_edges: int = 10):
    """A hybrid sum with topological variables s1..sr: the ``phi`` image
    of a generic forest of r = 1..3 trees, each rooted at the unit, with
    s_k multiplied into the root-edge coordinate of tree k (the first
    coordinate of the tree)."""
    coords = []
    next_param = 1
    for k, T in enumerate(generic_forest(rng, max_edges).trees, start=1):
        tc, next_param = _tree_coords(RDecoTree(UNIT, T.top), next_param)
        tc[0] = Coordinate(tc[0].q * monomial({topological(k): 1}), True)
        coords.extend(tc)
    return cycle_sum([(coords, 1)])
