import ast
import io
import json
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_cycles
from forest_cycles import (Coordinate, D, ForestTerm, boundary, checks, d,
                           load_fixture, phi, standard_spec, tau, tree_sum)
from forest_cycles import serialize as sz
from forest_cycles.cycle_algebra import cycle_sum
from forest_cycles.forest_algebra import edge_count, forest_sum
from forest_cycles.symbols import constant, parameter, sym_from_name, topological
from helpers import (bare, csum, generic_forest, hybrid_image, left_comb3, om,
                     two_leaf_tree)


def test_tree_json_round_trip():
    for T in (two_leaf_tree(), left_comb3()):
        blob = json.dumps(sz.tree_to_json(T))
        assert sz.tree_from_json(json.loads(blob)) == T


def _written(entries) -> str:
    out = io.StringIO()
    sz.write_json_list(entries, out)
    return out.getvalue()


def test_streamed_json_list_is_byte_identical_to_one_dump():
    for entries in ([], [{}], [[]], [{"a": [1, {"b": "x\ny"}], "c": []}, {"coeff": "-1/2"}]):
        assert _written(iter(entries)) == json.dumps(entries, indent=2) + "\n"
    S = tau(standard_spec(4))
    for stream, whole in ((sz.forest_sum_entries(S), sz.forest_sum_to_json(S)),
                          (sz.cycle_sum_entries(phi(S)), sz.cycle_sum_to_json(phi(S)))):
        assert _written(stream) == json.dumps(whole, indent=2) + "\n"


def test_tree_json_shape():
    assert sz.tree_to_json(two_leaf_tree()) == {
        "root": "1",
        "node": {"children": [{"leaf": "x1"}, {"leaf": "x2"}]},
    }


def test_forest_sum_round_trip_keeps_coefficients():
    S = d(tree_sum(left_comb3()))
    back = sz.forest_sum_from_json(json.loads(json.dumps(sz.forest_sum_to_json(S))))
    assert back == S


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_forest_json_round_trip_on_random_forests(rng):
    # both forests with sign -1, under fractional coefficients
    forests = [ForestTerm(F.trees, -1)
               for F in (checks.random_forest(rng), generic_forest(rng, 14))]
    for F in forests:
        assert sz.forest_term_from_json(json.loads(json.dumps(sz.forest_term_to_json(F)))) == F
    S = forest_sum([(F, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for F in forests])
    back = sz.forest_sum_from_json(json.loads(json.dumps(sz.forest_sum_to_json(S))))
    assert back == S


def test_int_and_fraction_coefficients_give_one_sum():
    rng = random.Random(4)
    forests = [checks.random_forest(rng) for _ in range(6)]
    ints = [rng.randint(-3, 3) for _ in forests]
    by_int = forest_sum(zip(forests, ints))
    by_fraction = forest_sum(zip(forests, map(Fraction, ints)))
    assert by_int == by_fraction
    assert sz.forest_sum_to_json(by_int) == sz.forest_sum_to_json(by_fraction)
    assert sz.forest_sum_to_latex(by_int) == sz.forest_sum_to_latex(by_fraction)
    images = phi(by_int), phi(by_fraction)
    assert images[0] == images[1]
    assert sz.cycle_sum_to_json(images[0]) == sz.cycle_sum_to_json(images[1])
    assert sz.cycle_sum_to_latex(images[0]) == sz.cycle_sum_to_latex(images[1])
    # a float is stored as the rational it is, not rounded
    for S in (forest_sum([(forests[0], 0.1)]), tree_sum(left_comb3()).scale(0.1)):
        (_, c), = S
        assert type(c) is Fraction and c == Fraction(0.1) != Fraction(1, 10)


def test_cycle_term_round_trip_with_plain_marker():
    S = csum(([bare(u1=1), om(u1=1), om(a=1, u1=-1)], 1))
    (t, _), = S
    obj = sz.cycle_term_to_json(t)
    assert obj["plain"] == [2]
    assert sz.cycle_term_from_json(obj) == t


def _json_round_trip(S):
    return sz.cycle_sum_from_json(json.loads(json.dumps(sz.cycle_sum_to_json(S))))


def test_cycle_sum_round_trip():
    S = csum(
        ([om(u1=-1), om(x1=-1, u1=1), om(x2=-1, u1=1)], 1),
        ([om(s1=1, x1=-1), om(s2=1, x2=-1)], -1),
    )
    assert _json_round_trip(S) == S


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_cycle_sum_json_round_trip_on_generic_images(rng):
    S = phi(forest_sum([(generic_forest(rng, 14), 1)]))
    # the same terms with some coordinates bare, under fractional
    # coefficients, plus the boundary of the image
    mixed = cycle_sum([([Coordinate(c.q, rng.random() < 0.7) for c in t.coords],
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for t, _ in S]
                      + [(t.coords, c) for t, c in boundary(S)])
    for Z in (S, mixed):
        assert _json_round_trip(Z) == Z


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_cycle_sum_json_round_trip_on_random_hybrid_sums(rng):
    S = hybrid_image(rng)
    for Z in (S, D(S)):
        assert _json_round_trip(Z) == Z


def test_cycle_sum_json_round_trip_on_bounding_differentials():
    for name in ("double_log", "triple_log"):
        chain, _, _ = load_fixture(name)
        S = D(chain)
        assert not S.is_zero()
        assert _json_round_trip(S) == S


def test_tree_latex():
    assert sz.tree_to_latex(two_leaf_tree()) == r"\bigl(1;\ (x_{1}\,x_{2})\bigr)"


def test_cycle_term_latex():
    S = csum(([bare(u1=1), om(u1=1), om(a=1, u1=-1)], 1))
    (t, _), = S
    assert sz.cycle_term_to_latex(t) == (
        r"\left[1-\frac{a}{u_{1}},\, u_{1},\, 1-u_{1}\right]")


def test_sym_latex_subscripts():
    assert sz.sym_to_latex("x12") == "x_{12}"
    assert sz.sym_to_latex("a") == "a"


_SOURCES = sorted(Path(forest_cycles.__file__).parent.glob("*.py"))


def test_package_sources_compile_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in _SOURCES:
            compile(path.read_text(), str(path), "exec")


def _imports(tree):
    """(bound name, imported module) for each import of a module body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module


def test_package_imports_are_used_and_only_two_modules_import_fractions():
    unused, fraction_users = [], set()
    for path in _SOURCES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for bound, module in _imports(tree):
            if path.stem != "__init__" and bound not in used:
                unused.append(f"{path.stem}: {bound}")
            if module == "fractions":
                fraction_users.add(path.stem)
    assert unused == []
    # a coefficient's type is decided in FormalSum; only the JSON reader
    # also parses a rational
    assert fraction_users == {"formal", "serialize"}


def _deep_tree(node, depth):
    for i in range(depth):
        node = {"children": [{"leaf": f"x{i}"}, node]}
    return {"root": "1", "node": node}


_READERS = (sz.tree_from_json, sz.forest_term_from_json, sz.forest_sum_from_json,
            sz.cycle_term_from_json, sz.cycle_sum_from_json)


@pytest.mark.parametrize("read, obj", [
    (sz.forest_term_from_json, {"sign": 1}),
    (sz.forest_sum_from_json, [3]),
    (sz.cycle_term_from_json, {"coords": [{"u1": [1]}]}),
    (sz.cycle_term_from_json, {"coords": [3]}),
    (sz.cycle_sum_from_json, [{"coords": [{"x1": 1}], "coeff": "1/0"}]),
    (sz.tree_from_json, _deep_tree({"leaf": "y"}, 3000)),
    (sz.forest_term_from_json, {"trees": [], "sign": 2}),
    (sz.forest_term_from_json, {"trees": [], "sign": 0}),
    (sz.cycle_term_from_json, {"coords": [{"x1": 1}], "plain": [7]}),
    (sz.forest_sum_from_json, "x"),
    (sz.cycle_sum_from_json, {"coords": []}),
], ids=["no_trees", "number_entry", "list_exponent", "number_coordinate", "zero_denominator",
        "nested_3000", "sign_2", "sign_0", "plain_out_of_range",
        "not_a_list_forest_sum", "not_a_list_cycle_sum"])
def test_readers_refuse_malformed_input_with_value_error(read, obj):
    with pytest.raises(ValueError):
        read(obj)


def test_tree_reader_takes_the_depth_bound_and_no_more():
    deepest = _deep_tree({"leaf": "y"}, sz.MAX_TREE_DEPTH)
    assert edge_count(sz.tree_from_json(deepest)) == 2 * sz.MAX_TREE_DEPTH + 1
    with pytest.raises(ValueError, match="nested too deeply"):
        sz.tree_from_json(_deep_tree({"leaf": "y"}, sz.MAX_TREE_DEPTH + 1))


def test_writers_take_a_tree_at_the_depth_bound():
    # json.dumps and json.loads recurse two containers a level, so the
    # dicts are read back here, not the text
    depth = sz.MAX_TREE_DEPTH
    T = sz.tree_from_json(_deep_tree({"leaf": "y"}, depth))
    S = tree_sum(T)
    assert repr(T) == ("RDecoTree(root_deco=DecoSymbol(name='1', is_unit=True), top="
                       + "".join(f"Node(children=(Leaf(deco=DecoSymbol(name='x{i}', "
                                 "is_unit=False)), " for i in reversed(range(depth)))
                       + "Leaf(deco=DecoSymbol(name='y', is_unit=False))" + "))" * depth + ")")
    (entry,) = sz.forest_sum_to_json(S)
    assert entry["coeff"] == "1" and sz.forest_term_from_json(entry) == ForestTerm((T,))
    assert sz.tree_from_json(sz.tree_to_json(T)) == T
    latex = sz.tree_to_latex(T)
    assert latex == (r"\bigl(1;\ " + "".join(f"(x_{{{i}}}\\," for i in reversed(range(depth)))
                     + "y" + ")" * depth + r"\bigr)")
    assert sz.forest_sum_to_latex(S) == latex
    (t, c), = phi(S)
    assert len(t.coords) == 2 * depth + 1 and c in (1, -1)


def test_writer_nests_a_tree_as_deep_as_the_indented_dump():
    # bisect for the deepest tree that json.dumps(entry, indent=2) writes
    # from this stack depth: write_json_list, which recurses once a
    # container, must write that tree too, as the same text
    def entry(depth):
        return dict(_deep_tree({"leaf": "y"}, depth), coeff="1")

    written, too_deep = 1, sz.MAX_TREE_DEPTH + 1
    while too_deep - written > 1:
        mid = (written + too_deep) // 2
        try:
            json.dumps(entry(mid), indent=2)
            written = mid
        except RecursionError:
            too_deep = mid
    assert written > 400
    expected = "[\n  " + json.dumps(entry(written), indent=2).replace("\n", "\n  ") + "\n]\n"
    assert _written(iter([entry(written)])) == expected


# quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text, each of which json.dumps escapes
_texts = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u2028\ud800\U0001f600')
                 | st.characters(), max_size=6)
_ints = st.integers() | st.sampled_from([-2 ** 63, 10 ** 40, -10 ** 40])
_written_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4)
    | st.dictionaries(st.none() | st.booleans() | _ints | st.floats() | _texts, inner, max_size=3),
    max_leaves=20)


@settings(max_examples=200)
@given(st.lists(_written_values, max_size=4))
def test_writer_matches_one_indented_dump_on_any_json_value(entries):
    # empty containers, floats, bools, None and a dict with a key that is
    # not a string are left to json.dumps
    assert _written(iter(entries)) == json.dumps(entries, indent=2) + "\n"


@pytest.mark.parametrize("name", ["u07", "s0", "u\u0663", "s\u00b2"])
def test_cycle_reader_refuses_variable_names_the_writer_never_makes(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        sz.cycle_term_from_json({"coords": [{name: 1}]})


def test_variable_names_read_as_written():
    assert sym_from_name("u10") == parameter(10) and sym_from_name("s3") == topological(3)
    assert sym_from_name("u") == constant("u") and sym_from_name("x07") == constant("x07")


_KEYS = ("root", "node", "leaf", "children", "trees", "sign", "coeff", "coords", "plain")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
    | st.sampled_from(["1", "x1", "u1", "s2", "-1/2", "1/0", "1e9"]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@settings(max_examples=150)
@given(_json_values, st.integers(0, 3000) | st.sampled_from(
    [sz.MAX_TREE_DEPTH, sz.MAX_TREE_DEPTH + 1]))
def test_json_readers_raise_value_error_and_nothing_else(value, depth):
    # the value alone, in each slot of each schema, and under deep nesting
    tree = _deep_tree(value, depth)
    deep_list = value
    for _ in range(depth):
        deep_list = [deep_list]
    for obj in (value, deep_list, tree, {"root": "1", "node": value},
                {"trees": [tree, tree], "sign": value}, [{"trees": [tree, tree]}],
                [{"trees": [tree], "coeff": value}],
                {"coords": [value, {"x1": deep_list}]}, {"coords": [{"u1": 1}], "plain": value},
                [{"coords": value, "coeff": deep_list}], [value]):
        for read in _READERS:
            try:
                read(obj)
            except ValueError:
                pass
