"""Shared builders for the test modules."""

from forest_cycles import (Coordinate, CycleTerm, ForestTerm, Leaf, Node,
                           RDecoTree, deco, monomial)
from forest_cycles.cycle_algebra import cycle_sum
from forest_cycles.symbols import sym_from_name


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
