"""Shared builders for the test modules."""

import functools
import importlib.util
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import forest_cycles
from forest_cycles import (Coordinate, CycleTerm, ForestTerm, Leaf, Node,
                           RDecoTree, deco, monomial)
from forest_cycles.cycle_algebra import cycle_sum
from forest_cycles.forest_algebra import edge_count
from forest_cycles.forest_cycling import raw_image
from forest_cycles.hybrid import FIXTURES
from forest_cycles.serialize import cycle_term_from_json
from forest_cycles.symbols import UNIT, sym_from_name, topological


BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def fixture_terms():
    """The terms of the bounding fixtures, chain then target, with their
    coordinates as stored, before any canonicalization."""
    for name in FIXTURES:
        data = json.loads(resources.files("forest_cycles").joinpath(
            "fixtures").joinpath(f"{name}.json").read_text())
        for part in ("chain", "target"):
            for entry in data[part]:
                yield cycle_term_from_json(entry)


# one value of each pickled type whose hash reads a string: a forest
# term, a decoration, a canonical term and a symbol of each kind
_PICKLED = (
    "from forest_cycles import (UNIT, Coordinate, constant, deco, monomial,\n"
    "                           normalize, parameter, topological)\n"
    "from forest_cycles import forest_algebra as fa\n"
    "F = fa.ForestTerm((fa.RDecoTree(UNIT, fa.Node((fa.Leaf(deco('x1')), fa.Leaf(deco('x2'))))),\n"
    "                   fa.RDecoTree(deco('x1'), fa.Leaf(deco('x3')))), -1)\n"
    "t, _ = normalize([Coordinate(monomial({parameter(2): 1, constant('a'): -1})),\n"
    "                  Coordinate(monomial({parameter(2): -1}), False)])\n"
    "values = (F, deco('x3'), t, constant('a'), parameter(2), topological(1))\n")


@functools.cache
def unpickled_values():
    """The values of ``_PICKLED`` built here, and the same values built
    and pickled in one other process with PYTHONHASHSEED=1, unpickled.
    A str hash differs between processes, so a cached hash must not
    travel inside a pickle."""
    local = {}
    exec(_PICKLED, local)
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(forest_cycles.__file__).parents[1]))
    code = _PICKLED + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(values))\n"
    blob = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True).stdout
    return local["values"], pickle.loads(blob)


def random_coords(rng: random.Random, names, most: int, p_om: float) -> list:
    """1..most coordinates, each 1 - q with odds ``p_om`` and else bare,
    over 1..3 of ``names`` with exponents up to +-2."""
    coords = []
    for _ in range(rng.randint(1, most)):
        picked = rng.sample(names, rng.randint(1, 3))
        exps = {s: rng.choice((-2, -1, 1, 2)) for s in picked}
        coords.append((om if rng.random() < p_om else bare)(**exps))
    return coords


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
    trees = [RDecoTree(UNIT, T.top) for T in generic_forest(rng, max_edges).trees]
    coords, root_edge = raw_image(trees), 0
    for k, T in enumerate(trees, start=1):
        coords[root_edge] = Coordinate(coords[root_edge].q * monomial({topological(k): 1}), True)
        root_edge += edge_count(T)
    return cycle_sum([(coords, 1)])
