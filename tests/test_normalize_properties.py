"""Label invariance of ``normalize``, ``normalize`` against a brute-force
search over every relabeling, and the hash/eq contract of the cycle
value types."""

import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import forest_cycles
from forest_cycles import (Coordinate, CycleTerm, constant, monomial, normalize,
                           parameter, phi_tree)
from forest_cycles.forest_algebra import edge_count
from forest_cycles.formal import perm_parity
from forest_cycles.symbols import sym_from_name
from helpers import generic_tree

MAX_EDGES = 24


def _names(repeat: bool):
    """Leaf and root names: fresh ones, or a pool of three, which gives
    tied colours and zero terms."""
    return (itertools.cycle(["y1", "y2", "y3"]) if repeat
            else (f"y{i}" for i in itertools.count(1)))


def _raw_image(rng: random.Random, max_edges: int, names):
    """Raw coordinates of phi on a random forest of at most ``max_edges``
    edges, with the leaf and root names drawn from ``names`` and each
    tree's parameters in a block of its own, as ``phi`` numbers them."""
    coords = []
    offset = 0
    left = max_edges
    while left >= 1 and (not coords or rng.random() < 0.4):
        T = generic_tree(rng, rng.randint((left + 1) // 2, left), names)
        left -= edge_count(T)
        image = phi_tree(T)
        k = len(image.params)
        shift = {parameter(i): parameter(offset + i) for i in range(1, k + 1)}
        coords.extend(c.rename(shift) for c in image.coords)
        offset += k
    return coords


def _raw_copies(rng: random.Random):
    """Raw coordinates of two or three copies of one small ``phi_tree``
    image, with the same leaf names and disjoint parameters, at most six
    in all; sometimes one more coordinate links a parameter of one copy
    to a constant, which splits that copy off from the others."""
    copies = rng.choice((2, 3))
    # an internal vertex has at least two children, so a tree of at most
    # 7 (5) edges has at most 3 (2) parameters
    image = phi_tree(generic_tree(rng, rng.randint(1, 11 - 2 * copies), _names(False)))
    k = len(image.params)
    coords = []
    for copy in range(copies):
        shift = {parameter(i): parameter(copy * k + i) for i in range(1, k + 1)}
        coords.extend(c.rename(shift) for c in image.coords)
    if k and rng.random() < 0.5:
        link = {parameter(rng.randint(1, copies * k)): rng.choice((1, -1)),
                constant("a"): 1}
        coords.append(Coordinate(monomial(link), rng.random() < 0.5))
    return coords


def _raw_rings(rng: random.Random):
    """Raw coordinates 1 - u_i/u_j around one directed ring of parameters
    or two copies of one, at most six parameters in all: terms that are
    not tree images, whose rotations and swaps are automorphisms.  Two
    rings of three catch a search that prunes with automorphisms that
    move the parameters already placed."""
    copies = rng.choice((1, 2))
    size = rng.randint(2, 6 // copies)
    coords = []
    for offset in range(0, copies * size, size):
        ring = [parameter(offset + i) for i in range(1, size + 1)]
        coords.extend(Coordinate(monomial({a: 1, b: -1}))
                      for a, b in zip(ring, ring[1:] + ring[:1]))
    if rng.random() < 0.5:
        coords.append(Coordinate(monomial({parameter(rng.randint(1, copies * size)): 1,
                                           constant("a"): 1})))
    return coords


def _relabeled_and_shuffled(rng: random.Random, raw):
    """The coordinates under fresh parameter names, in a random order,
    and that order as a permutation of the input positions."""
    params = sorted({s for c in raw for s, _ in c.q.exps if s.kind == "param"},
                    key=lambda s: s.index)
    fresh = rng.sample(range(1, 5 * len(params) + 2), len(params))
    relabel = {p: parameter(i) for p, i in zip(params, fresh)}
    perm = list(range(len(raw)))
    rng.shuffle(perm)
    return [raw[j].rename(relabel) for j in perm], perm


@settings(max_examples=300, deadline=None, database=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_normalize_invariant_under_relabeling_and_permutation(rng, repeat_names):
    raw = _raw_image(rng, MAX_EDGES, _names(repeat_names))
    moved, perm = _relabeled_and_shuffled(rng, raw)

    want = normalize(raw)
    got = normalize(moved)
    if want is None:
        assert got is None
    else:
        assert got == (want[0], want[1] * perm_parity(perm))


def _reference_colours(coords, params) -> dict:
    """Parameter colours written with plain dicts: each parameter's sorted
    (anonymous coordinate shape, exponent) occurrences, then rounds that
    add the sorted colours of the other parameters of each coordinate it
    sits in, until a round leaves the number of colours as it was."""
    def shape(c):
        return (int(c.one_minus),
                tuple(sorted((s.kind, "" if s.kind == "param" else s.name, e)
                             for s, e in c.q.exps)))

    def ranked(signature):
        rank = {v: r for r, v in enumerate(sorted(set(signature.values())))}
        return {p: rank[v] for p, v in signature.items()}

    around = {p: [c for c in coords if c.q.exp_of(p)] for p in params}
    colour = ranked({p: tuple(sorted((shape(c), c.q.exp_of(p)) for c in around[p]))
                     for p in params})
    while True:
        refined = ranked({p: (colour[p], tuple(sorted(
            tuple(sorted(colour[s] for s, _ in c.q.exps if s in colour and s != p))
            for c in around[p]))) for p in params})
        if len(set(refined.values())) == len(set(colour.values())):
            return colour
        colour = refined


def _parity(order) -> int:
    inversions = sum(a > b for x, a in enumerate(order) for b in order[x + 1:])
    return -1 if inversions % 2 else 1


def _reference_key(c) -> tuple:
    """The order of the canonical form: exponent pairs, then 1 - q after q."""
    return (c.q.exps, int(c.one_minus))


def _brute_force_normalize(coords):
    """The least sorted coordinate-key list over every relabeling u1..uk
    that gives lower colours lower indices, with the sign of its sort;
    zero when that least list is reached with both signs, when a
    coordinate is 1 or when two coordinates coincide."""
    if any(c.q.is_one for c in coords) or len(set(coords)) < len(coords):
        return None
    params = sorted({s for c in coords for s, _ in c.q.exps if s.kind == "param"})
    colour = _reference_colours(coords, params)
    best = None
    for names in itertools.permutations(range(1, len(params) + 1)):
        pairs = list(zip(params, names))
        if any(colour[p] < colour[q] and i > j
               for (p, i), (q, j) in itertools.permutations(pairs, 2)):
            continue
        renamed = [c.rename({p: parameter(i) for p, i in pairs}) for c in coords]
        order = sorted(range(len(coords)), key=lambda i: _reference_key(renamed[i]))
        key = [_reference_key(renamed[i]) for i in order]
        if best is None or key < best[0]:
            best = (key, tuple(renamed[i] for i in order), {_parity(order)})
        elif key == best[0]:
            best[2].add(_parity(order))
    _, term, parities = best
    return None if len(parities) == 2 else (CycleTerm(term), parities.pop())


@settings(max_examples=400, deadline=None, database=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(("fresh", "pool", "copies", "rings")))
def test_normalize_is_the_least_key_over_colour_ordered_relabelings(rng, inputs):
    # at most 11 edges keep k <= 5 parameters, and the copies and rings
    # keep k <= 6, so all k! relabelings are tried; the copies and rings
    # tie whole cells
    if inputs in ("fresh", "pool"):
        raw = _raw_image(rng, 11, _names(inputs == "pool"))
    else:
        raw = _raw_copies(rng) if inputs == "copies" else _raw_rings(rng)
    raw, _ = _relabeled_and_shuffled(rng, raw)
    assert normalize(raw) == _brute_force_normalize(raw)


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
