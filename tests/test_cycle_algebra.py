from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_cycles import (OutOfClassError, boundary, checks, concat, dimension, face,
                           is_admissible, normalize, phi, standard_spec, tau,
                           tree_sum)
from forest_cycles import cycle_algebra as ca
from forest_cycles.cycle_algebra import (INF, AdmissibilityWalk, cycle_sum,
                                         face_outcome, unit_sum)
from forest_cycles.formal import FormalSum
from helpers import bare, csum, ct, fixture_terms, generic_tree, om


def _ca():
    # [t, 1-t, 1-a/t] with t the first algebraic parameter
    return [bare(u1=1), om(u1=1), om(a=1, u1=-1)]


def test_normalize_kills_unit_monomial_coordinate():
    assert normalize([om()]) is None
    assert normalize([om(a=1), bare()]) is None


def test_normalize_kills_equal_coordinates():
    assert normalize([om(a=1), om(a=1)]) is None
    assert csum(([om(a=1, u1=1), om(a=1, u1=1)], 1)).is_zero()
    # eight tied parameters: swapping two of them swaps two coordinates,
    # an odd automorphism, so the term is zero with or without a repeat
    eight = [om(**{f"u{i}": 1}) for i in range(1, 9)]
    assert normalize(eight + [om(a=1)]) is None
    assert normalize(eight + [om(a=1), om(a=1)]) is None


def test_normalize_kills_equal_parametrized_coordinates(monkeypatch):
    # u1 enters two coordinates and u2 one, so the first colouring is
    # already discrete and refinement never runs
    def no_refine(*args):
        raise AssertionError("the first colouring should be discrete")

    monkeypatch.setattr(ca, "_refine", no_refine)
    assert normalize([om(u1=1, a=-1), om(u1=1, a=-1), om(u2=1, b=-1)]) is None
    assert normalize([om(u1=1, a=-1), om(u2=1, b=-1)]) is not None
    monkeypatch.undo()
    # u1 and u2 tie, and the tie survives refinement into the search;
    # swapping them is an even permutation of the coordinates
    searches = []
    search = ca._least_relabeling
    monkeypatch.setattr(ca, "_least_relabeling",
                        lambda *args: searches.append(args) or search(*args))
    tied = [om(u1=1, a=-1), om(u2=1, a=-1), om(u1=1, b=-1), om(u2=1, b=-1)]
    assert normalize(tied) is not None
    assert len(searches) == 1
    assert normalize(tied + tied[:2]) is None


def test_normalize_reuses_every_coordinate_it_leaves_unchanged(monkeypatch):
    # a key that equals the coordinate it renames must be that coordinate,
    # and the term must be built of keys: a fresh copy of each unchanged
    # coordinate costs resident memory.  The inputs are every term of
    # phi(tau_m), m <= 5, and every zero face of those terms.
    made = []
    orig = ca._keys

    def spy(parts, name):
        keys = orig(parts, name)
        for part, key in zip(parts, keys):
            assert key is part[0] or key != part[0]
        made.extend(keys)
        return keys

    monkeypatch.setattr(ca, "_keys", spy)
    terms = [t for m in range(2, 6) for t in phi(tau(standard_spec(m))).terms()]
    calls = [lambda t=t: [normalize(t.coords)] for t in terms] + [
        lambda t=t, i=i: face_outcome(t, i, 0).contributions
        for t in terms for i in range(1, t.n + 1)]
    built = 0
    for call in calls:
        made.clear()
        for res in call():
            if res is not None:
                assert {id(c) for c in res[0].coords} <= {id(k) for k in made}
                built += 1
    assert built > 100


def test_boundary_is_linear():
    # the coefficient of a term is folded into the sign of each face
    a, b = phi(tau(standard_spec(4))).terms()[:2]
    c = next(t for t in fixture_terms() if not boundary(FormalSum([(t, 1)])).is_zero())
    A, B, C = (FormalSum([(t, 1)]) for t in (a, b, c))
    half = Fraction(1, 2)
    S = A.scale(2) - B.scale(half) + C
    want = boundary(A).scale(2) - boundary(B).scale(half) + boundary(C)
    got = boundary(S)
    assert not want.is_zero()
    assert got == want
    assert {t: type(x) for t, x in got} == {t: type(x) for t, x in want}
    assert {type(x) for _, x in got} == {int, Fraction}


def test_normalize_kills_orientation_reversing_symmetry():
    # swapping the two parameters reproduces the term with odd parity
    assert normalize([om(u1=1), om(u2=1)]) is None


def test_normalize_relabels_parameters_canonically():
    t, sign = normalize([om(u7=1, a=1), om(u7=-1, b=1)])
    names = {s.name for c in t.coords for s, _ in c.q.exps if s.kind == "param"}
    assert names == {"u1"}
    assert sign in (1, -1)


def test_normalize_sorting_tracks_parity():
    assert csum(([om(b=1), om(a=1)], 1)) == csum(([om(a=1), om(b=1)], -1))


def test_normalize_idempotent():
    t, _ = normalize(_ca())
    again, sign = normalize(t.coords)
    assert again == t
    assert sign == 1


def test_dimension_counts_parameters():
    assert dimension(ct(om(a=1), om(b=1))) == 0
    t, _ = normalize(_ca())
    assert dimension(t) == 1


def test_zero_face_solves_for_unit_exponent_pivot():
    out = face(ct(om(u1=1, a=1)), 1, 0)
    assert out == unit_sum()


def test_face_empty_when_only_constants():
    assert face(ct(om(a=1, b=1)), 1, 0).is_zero()


def test_face_empty_for_single_topological_variable():
    assert face(ct(om(s1=1, a=1)), 1, 0).is_zero()


def test_zero_face_rejects_nonunit_pivot_exponent():
    with pytest.raises(OutOfClassError):
        face(ct(om(u1=2, a=1)), 1, 0)


def test_zero_face_rejects_two_topological_variables():
    with pytest.raises(OutOfClassError):
        face(ct(om(s1=1, s2=-1)), 1, 0)


def test_infinity_face_flags_blowup():
    t, _ = normalize([bare(u1=1), om(u1=1)])
    with pytest.raises(OutOfClassError):
        face(t, t.coords.index(om(u1=1)) + 1, INF)
    out = face_outcome(t, t.coords.index(om(u1=1)) + 1, INF)
    assert out.flags


def test_empty_limit_dominates_blowup():
    # in the full line fixture the 1-a/u coordinate goes to 1 first
    t, _ = normalize(_ca())
    i = t.coords.index(bare(u1=1)) + 1
    assert face(t, i, INF).is_zero()


def test_an_empty_limit_leaves_the_flags_of_the_other_limits():
    # face 2 at infinity of [1-a*u1, 1-u1*u2, 1-1/u2] is reached through
    # u1 -> inf and u2 -> inf.  The u2 limit sends 1 - 1/u2 to the removed
    # point 1 and is empty; the u1 limit still sends 1 - a*u1 to infinity.
    t, _ = normalize([om(u1=1, u2=1), om(u1=-1), om(a=1, u2=1)])
    assert t.coords == (om(a=1, u1=1), om(u1=1, u2=1), om(u2=-1))
    assert face_outcome(t, 2, INF) == ((), ("coordinate 1 -> constant infinity",))
    with pytest.raises(OutOfClassError, match="^coordinate 1 -> constant infinity$"):
        face(t, 2, INF)


def test_face_index_out_of_range():
    with pytest.raises(ValueError):
        face(ct(om(a=1)), 2, 0)


@pytest.mark.parametrize("eps", ["zero", "inf", None, 1, -INF])
def test_face_refuses_eps_other_than_zero_and_infinity(eps):
    t = ct(om(a=1, u1=1))
    for take in (face, face_outcome):
        with pytest.raises(ValueError, match="eps"):
            take(t, 1, eps)


def test_boundary_squared_on_monomial_terms():
    # shapes mirror tree images: every degeneration direction hits the
    # removed point 1 in some coordinate before a blow-up occurs; the
    # first two are the line and the two-parameter fixtures whose
    # boundaries acceptance criterion 3 checks
    res = checks.boundary_squared(cycle_sum([(coords, 1)]) for coords in (
        _ca(),
        [om(u1=-1), om(u1=1, a=1, b=1), om(u1=1, b=1)],
        [om(u1=1, a=1), om(u1=1, b=1), om(u1=-1, a=1)],
        [om(u1=-1), om(u1=1, a=-1), om(u1=1, u2=-1), om(u2=1, b=-1)],
        [om(u1=-1, a=1), om(u1=1, b=1), om(u1=1, c=1)],
    ))
    assert res.passed, res.witness


def test_concat_unit_and_antisymmetry():
    A = csum(([om(a=1)], 1))
    B = csum(([om(b=1)], 1))
    assert concat(A, unit_sum()) == A
    assert concat(A, B) == concat(B, A).scale(-1)
    assert concat(A, A).is_zero()


def test_concat_renames_clashing_parameters():
    A = csum(([om(u1=1, a=1), om(u1=-1)], 1))
    B = csum(([om(u1=1, b=1), om(u1=-1)], 1))
    prod = concat(A, B)
    (t, _), = prod
    assert dimension(t) == 2


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_concat_leibniz_on_generic_tree_images(rng):
    # both factors use u1, u2, ...; concat renames the second apart
    names = (f"y{i}" for i in count(1))
    A, B = (phi(tree_sum(generic_tree(rng, rng.randint(1, 7), names, 4)))
            for _ in range(2))
    res = checks.concat_leibniz([(A, B)])
    assert res.passed, res.witness


def test_admissibility_of_line_fixture():
    t, _ = normalize(_ca())
    rep = is_admissible(t)
    assert rep.admissible
    assert rep.faces_checked > 0
    assert rep.certificate == ()


def test_admissibility_violation_reports_chain():
    t, _ = normalize([om(u1=1, a=1), om(u1=-1, a=-1)])
    rep = is_admissible(t)
    assert not rep.admissible
    assert rep.certificate
    # the check's witness names the failing case and its face chain
    good, _ = normalize(_ca())
    res = checks.admissibility([good, t])
    assert not res.passed
    assert res.witness == f"case 1: {t} fails along the face chain {rep.certificate}"


def test_shared_walk_memo_gives_the_standalone_verdicts():
    good = [t for m in (2, 3, 4) for t in phi(tau(standard_spec(m))).terms()]
    flat, _ = normalize([om(u1=1, a=1), om(u1=-1, a=-1)])
    # both fail one face down, along a face chain
    deep1, _ = normalize([om(u1=-1, a=-1), om(u2=1, b=1), om(u1=1, u2=1)])
    deep2, _ = normalize([om(u1=1, a=1), om(u2=1, a=1), om(u1=-1, u2=1)])
    terms = good[:5] + [deep1] + good[5:] + [flat, deep2, deep1, flat]
    walk = AdmissibilityWalk()
    standalone = [is_admissible(t) for t in terms]
    for t, rep in zip(terms, standalone):
        chain = walk.violation(t)
        assert (chain is None, chain or ()) == (rep.admissible, rep.certificate)
    assert len(standalone[5].certificate) == 2 and len(standalone[-2].certificate) == 2
    assert walk.faces < sum(rep.faces_checked for rep in standalone)


def test_admissibility_raises_outside_class():
    t, _ = normalize([om(u1=2, a=1)])
    with pytest.raises(OutOfClassError):
        is_admissible(t)


def test_formal_sum_algebra():
    A = csum(([om(a=1)], 1))
    assert (A - A).is_zero()
    assert (A + A) == A.scale(2)
    assert len(A) == 1
    assert not FormalSum().terms()
