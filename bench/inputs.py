"""Seeded inputs for the benchmark workloads.

Everything here is built from a ``random.Random`` that the caller seeds,
so one seed always gives the same trees, forests and evaluation points.
Only the forest types of the package are used; its own random-forest
helper is not, so the inputs stay put when that helper moves or changes.
"""

from __future__ import annotations

import cmath
import math
import random
import string


def decoration_names(rng: random.Random, count: int) -> list:
    """``count`` distinct seeded names of three lowercase letters, in the
    order drawn.  Having no digits, none reads as the unit "1" or as a
    u<k>/s<k> cycle variable."""
    names: list = []
    seen = set()
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def random_top(fa, deco, rng: random.Random, edges: int, leaf_name,
               max_children: int):
    """Subtree hanging below one edge, with about ``edges`` edges counting
    that edge.  Internal vertices get 2..max_children children, so their
    valency is 3..max_children+1.  A budget of 2 cannot be met by a
    valency-3 vertex and becomes a leaf."""
    if edges < 3:
        return fa.Leaf(deco(leaf_name()))
    below = edges - 1
    k = rng.randint(2, min(max_children, below))
    shares = [1] * k
    for _ in range(below - k):
        shares[rng.randrange(k)] += 1
    return fa.Node(tuple(random_top(fa, deco, rng, s, leaf_name, max_children)
                         for s in shares))


def random_forest(fc, rng: random.Random, max_edges: int, max_trees: int,
                  max_children: int, pool=None):
    """Forest of 1..max_trees trees with at most ``max_edges`` edges.

    Without ``pool`` every external vertex gets a fresh name, so the
    forest is generic; with ``pool`` names are drawn from it and repeat.
    Each forest has at least half of ``max_edges`` edges before the
    leaf rounding in ``random_top``.
    """
    fa = fc.forest_algebra
    deco = fc.deco
    k = rng.randint(1, max_trees)
    total = rng.randint(max(3 * k, max_edges // 2), max_edges)
    sizes = [1] * k
    for _ in range(total - k):
        sizes[rng.randrange(k)] += 1
    if pool is None:
        fresh = decoration_names(rng, 2 * total + k)
        leaf_name = fresh.pop
    else:
        def leaf_name():
            return rng.choice(pool)
    trees = []
    for i, size in enumerate(sizes):
        # at most one unit root, so a generic forest stays generic
        root = fc.UNIT if i == 0 and rng.random() < 0.5 else deco(leaf_name())
        trees.append(fa.RDecoTree(root, random_top(fa, deco, rng, size,
                                                   leaf_name, max_children)))
    return fa.ForestTerm(tuple(trees))


def full_binary_tree(fc, depth: int, names):
    """Unit-rooted full binary tree with 2**depth leaves named in order."""
    fa = fc.forest_algebra
    it = iter(names)

    def build(level):
        if level == 0:
            return fa.Leaf(fc.deco(next(it)))
        return fa.Node((build(level - 1), build(level - 1)))

    return fa.RDecoTree(fc.UNIT, build(depth))


def polydisc_point(rng: random.Random, depth: int, rmin: float, rmax: float,
                   real: bool) -> list:
    """Series arguments with moduli in [rmin, rmax]; real ones get a
    random sign, complex ones a random phase."""
    out = []
    for _ in range(depth):
        r = rng.uniform(rmin, rmax)
        if real:
            out.append(r if rng.random() < 0.5 else -r)
        else:
            out.append(cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi)))
    return out


def x_of_z(z) -> list:
    """x_i = 1/(z_i * ... * z_m), the change of variables of the paper,
    written here apart from the package's own ``x_from_z``."""
    out = []
    prod = 1.0
    for v in reversed(z):
        prod *= v
        out.append(1.0 / prod)
    return out[::-1]


def z_of_x(x) -> list:
    """Inverse of ``x_of_z``: z_i = x_{i+1}/x_i and z_m = 1/x_m."""
    return [x[i + 1] / x[i] for i in range(len(x) - 1)] + [1.0 / x[-1]]
