"""Label invariance of ``normalize`` and the hash/eq contract of the
cycle value types."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import forest_cycles
from forest_cycles import (Coordinate, CycleTerm, Leaf, Node, RDecoTree,
                           constant, deco, monomial, normalize, parameter,
                           phi_tree)
from forest_cycles.forest_algebra import edge_count
from forest_cycles.formal import perm_parity
from forest_cycles.symbols import UNIT, sym_from_name

MAX_EDGES = 14  # keeps every cell product below the relabeling cap


def _generic_tree(rng: random.Random, budget: int, names) -> RDecoTree:
    """Tree of at most ``budget`` edges whose leaves all carry fresh names."""
    def build(edges, stop):
        # edges available to the subtree, counting the edge above it
        if edges < 3 or rng.random() < stop:
            return Leaf(deco(next(names)))
        arity = rng.randint(2, min(3, edges - 1))
        shares = [1] * arity
        for _ in range(edges - 1 - arity):
            shares[rng.randrange(arity)] += 1
        return Node(tuple(build(s, 0.3) for s in shares))

    root = UNIT if rng.random() < 0.5 else deco(next(names))
    return RDecoTree(root, build(budget, 0.0))


def _raw_generic_image(rng: random.Random):
    """Raw coordinates of phi on a random generic forest, each tree's
    parameters in a block of its own, as ``phi`` numbers them."""
    names = (f"y{i}" for i in range(1, 10 * MAX_EDGES))
    coords = []
    offset = 0
    left = MAX_EDGES
    while left >= 1 and (not coords or rng.random() < 0.4):
        T = _generic_tree(rng, rng.randint((left + 1) // 2, left), names)
        left -= edge_count(T)
        image = phi_tree(T)
        k = len(image.params)
        shift = {parameter(i): parameter(offset + i) for i in range(1, k + 1)}
        coords.extend(c.rename(shift) for c in image.coords)
        offset += k
    return coords


@settings(max_examples=150, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_normalize_invariant_under_relabeling_and_permutation(rng):
    raw = _raw_generic_image(rng)
    params = sorted({s for c in raw for s, _ in c.q.exps if s.kind == "param"},
                    key=lambda s: s.index)
    fresh = rng.sample(range(1, 5 * len(params) + 2), len(params))
    relabel = {p: parameter(i) for p, i in zip(params, fresh)}
    perm = list(range(len(raw)))
    rng.shuffle(perm)
    moved = [raw[j].rename(relabel) for j in perm]

    want = normalize(raw)
    got = normalize(moved)
    if want is None:
        assert got is None
    else:
        assert got == (want[0], want[1] * perm_parity(perm))


def test_sym_eq_and_hash_agree_across_constructors():
    a, b = sym_from_name("u3"), parameter(3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert sym_from_name("u3") != sym_from_name("s3")
    assert constant("u") != parameter(3)


def test_renamed_monomial_eq_and_hash_agree_with_built_one():
    u1, u2, u3 = parameter(1), parameter(2), parameter(3)
    a = constant("a")
    swapped = monomial({u1: 1, u2: -2, a: 1}).rename({u1: u3, u2: u1})
    built = monomial({u3: 1, u1: -2, a: 1})
    assert swapped == built and hash(swapped) == hash(built)
    assert swapped.exps == built.exps
    ct1 = CycleTerm((Coordinate(swapped), Coordinate(built, False)))
    ct2 = CycleTerm((Coordinate(built), Coordinate(swapped, False)))
    assert ct1 == ct2 and hash(ct1) == hash(ct2)


def test_unpickled_term_hashes_like_a_local_one():
    # a str hash differs between processes, so a cached hash must not
    # travel inside the pickle
    t, _ = normalize([Coordinate(monomial({parameter(2): 1, constant("a"): -1})),
                      Coordinate(monomial({parameter(2): -1}), False)])
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(forest_cycles.__file__).parents[1]))
    code = ("import pickle, sys\n"
            "from forest_cycles import Coordinate, constant, monomial, normalize, parameter\n"
            "t, _ = normalize([Coordinate(monomial({parameter(2): 1, constant('a'): -1})),\n"
            "                  Coordinate(monomial({parameter(2): -1}), False)])\n"
            "sys.stdout.buffer.write(pickle.dumps(t))\n")
    blob = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True).stdout
    assert {pickle.loads(blob): 1}.get(t) == 1
