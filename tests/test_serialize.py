import io
import json
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import forest_cycles
from forest_cycles import (Coordinate, D, ForestTerm, boundary, checks, d,
                           load_fixture, phi, standard_spec, tau, tree_sum)
from forest_cycles import serialize as sz
from forest_cycles.cycle_algebra import cycle_sum
from forest_cycles.forest_algebra import forest_sum
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


@settings(max_examples=100, deadline=None, database=None)
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


def test_cycle_term_round_trip_with_plain_marker():
    S = csum(([bare(u1=1), om(u1=1), om(a=1, u1=-1)], 1))
    (t, _), = S.items()
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


@settings(max_examples=100, deadline=None, database=None)
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


@settings(max_examples=100, deadline=None, database=None)
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
    (t, _), = S.items()
    assert sz.cycle_term_to_latex(t) == (
        r"\left[1-\frac{a}{u_{1}},\, u_{1},\, 1-u_{1}\right]")


def test_sym_latex_subscripts():
    assert sz.sym_to_latex("x12") == "x_{12}"
    assert sz.sym_to_latex("a") == "a"


def test_package_sources_compile_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sorted(Path(forest_cycles.__file__).parent.glob("*.py")):
            compile(path.read_text(), str(path), "exec")
