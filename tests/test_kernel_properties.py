"""The cycle value kernel against plain references: monomial arithmetic
against exponent dicts, the symbol order against an explicit sort key,
and pickling of every value type."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from forest_cycles import Coordinate, CycleTerm, constant, monomial, parameter
from forest_cycles.cycle_algebra import ONE
from forest_cycles.symbols import KIND_CONST, KIND_PARAM, KIND_TOP, topological

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


@settings(max_examples=200, deadline=None, database=None)
@given(monomial_pairs())
def test_product_matches_dict_reference(pair):
    a, b = pair
    got = monomial(a) * monomial(b)
    assert got.exps == _reference_pairs(_times(a, b))
    assert got == monomial(_times(a, b)) and hash(got) == hash(monomial(_times(a, b)))


@settings(max_examples=100, deadline=None, database=None)
@given(exponent_dicts, st.integers(-3, 3))
def test_power_matches_dict_reference(a, k):
    m = monomial(a)
    assert (m ** k).exps == _reference_pairs({s: e * k for s, e in a.items()})
    assert m ** 1 is m
    assert m ** 0 == ONE


@settings(max_examples=200, deadline=None, database=None)
@given(exponent_dicts, syms, exponent_dicts)
def test_without_and_substitute_match_dict_reference(a, sym, repl):
    m = monomial(a)
    rest = {s: e for s, e in a.items() if s != sym}
    assert m.without(sym).exps == _reference_pairs(rest)
    e = a.get(sym, 0)
    want = _times(rest, {s: f * e for s, f in repl.items()}) if e else a
    assert m.substitute(sym, monomial(repl)).exps == _reference_pairs(want)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(syms, max_size=12))
def test_symbol_order_is_kind_rank_index_name(items):
    assert sorted(items) == sorted(items, key=_reference_sort_key)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.tuples(exponent_dicts, st.booleans()), max_size=4))
def test_pickle_round_trip_keeps_equality_and_hash(raw):
    coords = tuple(Coordinate(monomial(a), om) for a, om in raw)
    term = CycleTerm(coords)
    term.params  # a cached parameter tuple does not travel in the pickle
    values = [s for a, _ in raw for s in a] + [c.q for c in coords] + list(coords) + [term]
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v)
    assert pickle.loads(pickle.dumps(term)).params == term.params
