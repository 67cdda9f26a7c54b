"""The value kernels against plain references: monomial arithmetic
against exponent dicts, the symbol and coordinate orders against
explicit sort keys, the tree order, edge count, edge walk and every
edge contraction against the edge listing, the permutation sign
against a count of inversions, the edge coordinates of ``phi`` against
vertex values read along the edge listing, and pickling of every value
type.  Monomials and coordinates are tuples underneath; the tuple
operations that are not monomial arithmetic must not leak through."""

import pickle
import random
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forest_cycles import (UNIT, Coordinate, CycleTerm, Monomial, NumericContext,
                           constant, deco, monomial, parameter, standard_spec)
from forest_cycles import forest_algebra as fa
from forest_cycles.checks import _random_tree
from forest_cycles.cycle_algebra import ONE
from forest_cycles.forest_cycling import raw_image
from forest_cycles.formal import perm_parity
from forest_cycles.symbols import (KIND_CONST, KIND_PARAM, KIND_TOP, DecoSymbol,
                                   topological)
from helpers import unpickled_values

RANK = {KIND_CONST: 0, KIND_PARAM: 1, KIND_TOP: 2}

syms = st.one_of(st.sampled_from(["a", "b", "x1", "x10", "x2", "u"]).map(constant),
                 st.integers(1, 4).map(parameter),
                 st.integers(1, 3).map(topological))
exponent_dicts = st.dictionaries(syms, st.integers(-3, 3), max_size=6)


def _reference_sort_key(s):
    return (RANK[s.kind], s.index, s.name)


def _reference_pairs(exps: dict) -> tuple:
    """What a monomial with these exponents must store: nonzero
    exponents in symbol order."""
    return tuple(sorted(((s, e) for s, e in exps.items() if e),
                        key=lambda se: _reference_sort_key(se[0])))


def _times(a: dict, b: dict) -> dict:
    return {s: a.get(s, 0) + b.get(s, 0) for s in {**a, **b}}


@st.composite
def monomial_pairs(draw):
    """Two exponent dicts, the second often cancelling part of the first."""
    a = draw(exponent_dicts)
    cancel = draw(st.sets(st.sampled_from(sorted(a, key=_reference_sort_key)))
                  if a else st.just(set()))
    b = draw(exponent_dicts)
    b.update({s: -a[s] for s in cancel})
    return a, b


@settings(max_examples=200)
@given(monomial_pairs())
def test_product_matches_dict_reference(pair):
    a, b = pair
    got = monomial(a) * monomial(b)
    assert got.exps == _reference_pairs(_times(a, b))
    assert got == monomial(_times(a, b)) and hash(got) == hash(monomial(_times(a, b)))


@settings(max_examples=100)
@given(st.lists(syms, max_size=12))
def test_symbol_order_is_kind_rank_index_name(items):
    assert sorted(items) == sorted(items, key=_reference_sort_key)


def test_only_monomial_arithmetic_is_defined():
    a, u1 = constant("a"), parameter(1)
    m = monomial({a: 1, u1: -1})
    assert m * m == monomial({a: 2, u1: -2}) and type(m * m) is Monomial
    assert m * ONE is m and ONE * m is m
    c = Coordinate(m)
    for v in (m, ONE, c):
        for op in (lambda: v + v, lambda: v + (), lambda: () + v,
                   lambda: v * 2, lambda: 2 * v, lambda: v * 0, lambda: v * (a,),
                   lambda: v ** 2):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        c * c
    # is_one is the emptiness test; len and truthiness are the tuple's
    assert ONE.is_one is True and Monomial().is_one is True and m.is_one is False
    assert repr(Coordinate(monomial({a: 1}), False)) == (
        "Coordinate(q=Monomial(exps=((Sym(kind='const', name='a', index=0), 1),)), "
        "one_minus=False)")


@settings(max_examples=100)
@given(st.lists(st.tuples(exponent_dicts, st.booleans()), max_size=6))
def test_coordinates_sort_by_exponent_pairs_then_shape(raw):
    coords = [Coordinate(monomial(a), om) for a, om in raw]
    assert all(c.q.exps == _reference_pairs(a) for c, (a, _) in zip(coords, raw))

    def key(c):
        return ([(_reference_sort_key(s), e) for s, e in c.q.exps], int(c.one_minus))

    assert sorted(coords) == sorted(coords, key=key)
    for x in coords:
        for y in coords:
            assert (x == y) == (key(x) == key(y))
            assert (x == y) <= (hash(x) == hash(y))


@settings(max_examples=100)
@given(st.lists(st.tuples(exponent_dicts, st.booleans()), max_size=4))
def test_pickle_round_trip_keeps_equality_and_hash(raw):
    coords = tuple(Coordinate(monomial(a), om) for a, om in raw)
    term = CycleTerm(coords)
    # cached parameter and topological tuples do not travel in the pickle
    term.params, term.top_syms
    values = [s for a, _ in raw for s in a] + [c.q for c in coords] + list(coords) + [term]
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and type(back) is type(v)
    back = pickle.loads(pickle.dumps(term))
    assert back.params == term.params and back.top_syms == term.top_syms
    assert term.top_syms == tuple(sorted({s for a, _ in raw for s, e in a.items()
                                          if e and s.kind == KIND_TOP}))


def test_terms_and_validated_values_refuse_assignment():
    # a term's hash is computed once, and a context or a spec is checked
    # once, at construction
    term = CycleTerm((Coordinate(monomial({parameter(1): 1})),))
    for obj, name, value in [(term, "coords", ()),
                             (NumericContext(), "quadrature_order", 1),
                             (NumericContext(), "tolerance", 0.0),
                             (standard_spec(2), "decorations", ())]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert term.coords == (Coordinate(monomial({parameter(1): 1})),)


# ---------------------------------------------------------------------------
# forest value types

POOL = [f"x{i}" for i in range(1, 5)]  # few names, so trees tie and repeat

trees = st.builds(_random_tree, st.randoms(use_true_random=False),
                  st.integers(1, 12), st.just(POOL))


def _reference_edge_count(node) -> int:
    if isinstance(node, fa.Leaf):
        return 1
    return 1 + sum(_reference_edge_count(ch) for ch in node.children)


def _reference_deco_key(d) -> tuple:
    return (0 if d.is_unit else 1, d.name)


def _reference_node_key(node) -> tuple:
    if isinstance(node, fa.Leaf):
        return (0, _reference_deco_key(node.deco))
    return (1,) + tuple(_reference_node_key(ch) for ch in node.children)


def _reference_tree_key(tree) -> tuple:
    return (_reference_edge_count(tree.top), _reference_deco_key(tree.root_deco),
            _reference_node_key(tree.top))


def _spliced(node, path, new):
    """The vertices that replace ``node`` once its vertex at ``path`` is
    replaced by the vertices ``new``."""
    if not path:
        return new
    j = path[0]
    ch = node.children
    return (fa.Node(ch[:j] + _spliced(ch[j], path[1:], new) + ch[j + 1:]),)


def _reference_contraction(tree, path):
    """The edge ``path`` contracted: the root edge plants the top's
    children at the root, an internal edge splices the far vertex's
    children into its parent, and a leaf edge has its sign read off the
    edge listing of the root component."""
    far = fa.node_at(tree, path)
    if not path:
        if isinstance(far, fa.Leaf):
            return None  # the only edge of a single-edge tree
        return tuple(fa.RDecoTree(tree.root_deco, ch) for ch in far.children), 1
    if isinstance(far, fa.Node):
        top, = _spliced(tree.top, path, far.children)
        return (fa.RDecoTree(tree.root_deco, top),), 1
    q, j = path[:-1], path[-1]
    parent = fa.node_at(tree, q)
    lam = far.deco
    top, = _spliced(tree.top, q, (fa.Leaf(lam),))
    root = fa.RDecoTree(tree.root_deco, top)
    branches = tuple(fa.RDecoTree(lam, ch)
                     for k, ch in enumerate(parent.children) if k != j)
    order = [p for p, _ in fa.edge_walk(root)]
    after = len(order) - 1 - order.index(q)
    below = _reference_edge_count(tree.top) - 1 - len(order)
    return (root,) + branches, (-1) ** (after * below)


@settings(max_examples=200)
@given(trees)
def test_edge_count_and_contractions_match_edge_listing(tree):
    assert fa.edge_count(tree) == _reference_edge_count(tree.top)
    assert fa.edge_count(tree) == len(list(fa.edge_walk(tree)))
    for k, (path, above) in enumerate(fa.edge_walk(tree)):
        assert above == tuple(fa.node_at(tree, path[:i]) for i in range(len(path)))
        assert fa.contract_components(tree, path, above, k) == \
            _reference_contraction(tree, path)


def _top(*children):
    return fa.Node(tuple(fa.Leaf(deco(ch)) if isinstance(ch, str) else ch for ch in children))


# equal edge counts, and the first child of one is a prefix of the other's
PREFIX_TIE = [fa.RDecoTree(UNIT, _top(_top("x1", "x2", "x3"), _top("x4", "x1"))),
              fa.RDecoTree(UNIT, _top(_top("x1", "x2"), _top("x3", "x4", "x1")))]


@settings(max_examples=200)
@given(st.lists(trees, max_size=6))
@example(PREFIX_TIE)
def test_tree_order_matches_nested_key(items):
    assert sorted(items) == sorted(items, key=_reference_tree_key)
    for x in items:
        for y in items:
            assert (x == y) == (_reference_tree_key(x) == _reference_tree_key(y))
            assert (x == y) <= (hash(x) == hash(y))


def test_sorted_trees_counts_odd_inversions():
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(300):
        # few names and small trees, so trees tie and odd ones repeat
        items = tuple(_random_tree(rng, 4, POOL[:2]) for _ in range(rng.randrange(7)))
        odd = [T for T in items if _reference_edge_count(T.top) % 2]
        got = fa._sorted_trees(items)
        if any(a == b for a, b in combinations(odd, 2)):
            assert got is None
            outcomes["zero"] += 1
            continue
        inversions = sum(1 for a, b in combinations(odd, 2)
                         if _reference_tree_key(a) > _reference_tree_key(b))
        assert got == (tuple(sorted(items, key=_reference_tree_key)), (-1) ** inversions)
        outcomes[got[1]] += 1
    assert min(outcomes[k] for k in ("zero", 1, -1)) > 30


@settings(max_examples=100)
@given(st.lists(trees, min_size=1, max_size=3), st.sampled_from([1, -1]))
def test_forest_pickle_round_trip_keeps_equality_and_hash(items, sign):
    F = fa.ForestTerm(tuple(items), sign)
    values = [F, *items, *(T.top for T in items)]
    values += [ch for T in items if isinstance(T.top, fa.Node) for ch in T.top.children]
    values += [T.root_deco for T in items] + [d for T in items
                                               for d in fa.external_decorations(T)]
    for v in values:
        assert not hasattr(v, "__dict__")
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v)


def test_unpickled_forest_hashes_like_a_local_one():
    # decoration and constant names are strings, whose hash differs
    # between processes; the canonical term is checked in
    # test_normalize_properties
    local, back = unpickled_values()
    for i in (0, 1, 3, 4, 5):
        assert {back[i]: 1}.get(local[i]) == 1
    assert [s.kind for s in back[3:]] == [KIND_CONST, KIND_PARAM, KIND_TOP]


def test_forest_values_are_plain_tuples_compared_in_c():
    for cls in (DecoSymbol, fa.Leaf, fa.Node, fa.RDecoTree, fa.ForestTerm):
        assert issubclass(cls, tuple) and cls.__slots__ == (), cls
        assert not {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
                    "__hash__"} & set(vars(cls)), cls


def test_forest_term_repr_is_pinned():
    # the CLI and the JSON writer order forest terms by this text
    F = fa.ForestTerm((fa.RDecoTree(UNIT, fa.Node((
        fa.Leaf(deco("x1")), fa.Node((fa.Leaf(deco("x2")), fa.Leaf(deco("x3"))))))),), -1)
    assert repr(F) == (
        "ForestTerm(trees=(RDecoTree(root_deco=DecoSymbol(name='1', is_unit=True), "
        "top=Node(children=(Leaf(deco=DecoSymbol(name='x1', is_unit=False)), "
        "Node(children=(Leaf(deco=DecoSymbol(name='x2', is_unit=False)), "
        "Leaf(deco=DecoSymbol(name='x3', is_unit=False))))))),), sign=-1)")


def test_decoration_is_slotted_and_compares_by_name_and_unit():
    a, b = DecoSymbol("x1"), deco("x1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert DecoSymbol("1") != UNIT and deco("1") is UNIT
    assert not hasattr(a, "__dict__")
    assert repr(a) == "DecoSymbol(name='x1', is_unit=False)"


# ---------------------------------------------------------------------------
# edge coordinates of phi

# "1" is the unit; few names, so root decorations meet their leaves
DECO_POOL = ["1", "x1", "x2", "x10", "a"]


def _reference_tree_coords(tree, first_param: int):
    """Every vertex valued first (a constant or the unit at the external
    vertices, parameters in preorder at the internal ones), then one
    ratio near/far per edge of the canonical edge listing."""
    values = {}
    counter = [first_param]

    def value(d):
        return ONE if d.is_unit else monomial({constant(d.name): 1})

    def rec(node, path):
        if isinstance(node, fa.Leaf):
            values[path] = value(node.deco)
            return
        values[path] = monomial({parameter(counter[0]): 1})
        counter[0] += 1
        for j, ch in enumerate(node.children):
            rec(ch, path + (j,))

    rec(tree.top, ())
    coords = [Coordinate((value(tree.root_deco) if path == () else values[path[:-1]])
                         * monomial({s: -e for s, e in values[path].exps}), True)
              for path, _ in fa.edge_walk(tree)]
    return coords, counter[0]


@settings(max_examples=300)
@given(st.builds(_random_tree, st.randoms(use_true_random=False),
                 st.integers(1, 12), st.just(DECO_POOL)),
       st.integers(1, 5))
def test_tree_coords_match_vertex_values_along_edge_listing(tree, first):
    # behind a chain of first - 1 internal vertices the tree's parameter
    # block starts at u_first, and a copy of it takes the block after
    lead = fa.Leaf(deco("x1"))
    for _ in range(first - 1):
        lead = fa.Node((fa.Leaf(deco("x1")), lead))
    lead = fa.RDecoTree(UNIT, lead)
    got = raw_image((lead, tree, tree))
    want, nxt = _reference_tree_coords(lead, 1)
    assert nxt == first
    for _ in range(2):
        block, nxt = _reference_tree_coords(tree, nxt)
        want += block
    assert [c.q.exps for c in got] == [c.q.exps for c in want]
    assert got == want and [hash(c) for c in got] == [hash(c) for c in want]


def test_perm_parity_is_the_parity_of_the_inversions():
    rng = random.Random(3)
    perms = [p for n in range(7) for p in permutations(range(n))]
    perms += [rng.sample(range(n), n) for n in range(7, 40) for _ in range(20)]
    for p in perms:
        inversions = sum(a > b for a, b in combinations(p, 2))
        assert perm_parity(p) == (-1) ** inversions
