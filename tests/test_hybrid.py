import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_cycles import (D, Coordinate, CycleTerm, OutOfClassError, boundary, checks,
                           constant, delta, dimension, load_fixture, monomial,
                           parameter, phi, standard_spec, tau, topological,
                           topological_part, verify_bounding)
from forest_cycles.formal import FormalSum
from forest_cycles.hybrid import (FIXTURES, delta_term, has_constant_coordinate,
                                  is_topologically_decomposable, negligible_reason)
from helpers import csum, ct, hybrid_image, om


def _eta1():
    return csum(([om(s1=1, u1=-1), om(u1=1, x1=-1), om(u1=1, x2=-1)], 1))


def test_topological_dimension_and_contiguity():
    (t, _), = _eta1()
    assert len(t.top_syms) == 1
    gap = ct(om(s2=1, x1=-1))
    with pytest.raises(ValueError):
        delta_term(gap)


def test_delta_vanishes_without_topological_variables():
    S = csum(([om(u1=1, a=1), om(u1=-1)], 1))
    assert delta(S).is_zero()


def test_delta_single_level_erases_the_variable():
    (t, _), = _eta1()
    got = delta_term(t)
    want = csum(([om(x1=-1, u1=1), om(x2=-1, u1=1), om(u1=-1)], -1))
    assert got == want


def test_delta_two_level_fence():
    S = csum(([om(s1=1, x1=-1), om(s2=1, u1=-1),
               om(u1=1, x2=-1), om(u1=1, x3=-1)], 1))
    (t, _), = S
    got = delta_term(t)
    want = csum(
        ([om(x1=-1, s1=1), om(x2=-1, u1=1), om(x3=-1, u1=1), om(u1=-1, s1=1)], -1),
        ([om(x1=-1, s1=1), om(x2=-1, u1=1), om(x3=-1, u1=1), om(u1=-1)], 1),
    )
    assert got == want


def test_combined_differential_on_one_term():
    got = D(_eta1())
    want = csum(
        ([om(x1=-1, s1=1), om(x1=1, x2=-1)], -1),
        ([om(x1=-1, x2=1), om(x2=-1, s1=1)], -1),
        ([om(x1=-1, s1=1), om(x2=-1, s1=1)], 1),
        ([om(x1=-1, u1=1), om(x2=-1, u1=1), om(u1=-1)], 1),
    )
    assert got == want


def test_combined_differential_squares_to_zero():
    for name in ("double_log", "triple_log"):
        chain, _, _ = load_fixture(name)
        assert D(D(chain)).is_zero()


def test_negligibility_cases():
    const = ct(om(x1=1, x2=-1), om(s1=1, x1=-1))
    assert has_constant_coordinate(const)
    assert negligible_reason(const) == "constant coordinate"
    # a raw coordinate on the monomial 1 is constant too
    assert has_constant_coordinate(ct(om(s1=1, x1=-1), om()))

    split = ct(om(s1=1, x1=-1), om(u1=1, x2=-1), om(u1=1, x3=-1))
    assert not has_constant_coordinate(split)
    assert is_topologically_decomposable(split)
    assert negligible_reason(split) == "topologically decomposable"

    (linked, _), = _eta1()
    assert negligible_reason(linked) is None

    pure = ct(om(u1=1, x1=-1), om(u1=-1))
    assert not is_topologically_decomposable(pure)
    assert negligible_reason(pure) is None


def test_bounding_fixtures_pass():
    for name, residuals in (("double_log", 3), ("triple_log", 13)):
        chain, target, _ = load_fixture(name)
        rep = verify_bounding(chain, target)
        assert rep.passed, rep.offending
        assert len(rep.residual) == residuals
        assert not rep.offending
        for _, _, reason in rep.residual:
            assert reason in ("constant coordinate", "topologically decomposable")


def test_is_negligible_agrees_with_the_bounding_residual():
    for name in FIXTURES:
        chain, target, _ = load_fixture(name)
        for goal in (target, FormalSum()):  # the empty goal leaves offenders
            rep, residual = verify_bounding(chain, goal), D(chain) - goal
            reasons = {t: reason for t, _, reason in rep.residual}
            assert len(reasons) + len(rep.offending) == len(residual)
            for t, _ in residual:
                assert negligible_reason(t) == reasons.get(t)


def test_bounding_reports_offenders_against_wrong_target():
    chain, _, _ = load_fixture("double_log")
    rep = verify_bounding(chain, FormalSum())
    assert not rep.passed
    assert rep.offending
    # the check's witness names the fixture and its first offending term
    res = checks.bounding([("double_log", chain, FormalSum())])
    assert not res.passed
    t, c = rep.offending[0]
    assert res.witness == f"fixture double_log: offending {c} * {t}"


def test_fixture_targets_are_tree_images():
    chain2, target2, meta2 = load_fixture("double_log")
    assert target2 == phi(tau(standard_spec(2)))
    assert meta2["xs"] == [6, 3]
    chain3, target3, meta3 = load_fixture("triple_log")
    assert target3 == phi(tau(standard_spec(3))).scale(-1)
    assert meta3["xs"] == [12, 6, 2]


def test_topological_parts():
    chain2, _, _ = load_fixture("double_log")
    assert topological_part(chain2) == csum(
        ([om(s1=1, x1=-1), om(s2=1, x2=-1)], 1))
    chain3, _, _ = load_fixture("triple_log")
    assert topological_part(chain3) == csum(
        ([om(s1=1, x1=-1), om(s2=1, x2=-1), om(s3=1, x3=-1)], -1))


def test_unknown_fixture_name():
    with pytest.raises(ValueError):
        load_fixture("nope")


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_combined_differential_squares_to_zero_on_random_hybrid_images(rng):
    S = hybrid_image(rng)
    assert not S.is_zero()
    assert D(D(S)).is_zero()
    # delta adds the fences as they are, D twists those of odd dimension
    fences, twisted = FormalSum(), FormalSum()
    for t, c in S:
        for t2, c2 in delta_term(t):
            fences.add_term(t2, c * c2)
            twisted.add_term(t2, (-1) ** dimension(t) * c * c2)
    assert delta(S) == fences
    assert D(S) - boundary(S) == twisted


def _random_hybrid_coords(rng: random.Random, r: int, n: int) -> list:
    """n coordinates over constants a, b, parameters u1..u3 and s1..sr.
    Every s_k occurs; s1 sometimes with a negative exponent, and some
    coordinates hold s_k^e s_{k+1}^-e, which cancels when s_{k+1} merges
    into s_k."""
    syms = [constant("a"), constant("b")] + [parameter(i) for i in (1, 2, 3)]
    exps = [{s: rng.randint(-2, 2) for s in rng.sample(syms, rng.randint(0, 3))}
            for _ in range(n)]
    for k in range(1, r + 1):
        d = exps[rng.randrange(n)]
        e = rng.choice((1, 1, 2, -1))
        if k == 1 and rng.random() < 0.8:
            e = abs(e)
        d[topological(k)] = d.get(topological(k), 0) + e
        if k < r and rng.random() < 0.3:
            d[topological(k + 1)] = d.get(topological(k + 1), 0) - e
    return [Coordinate(monomial(d), rng.random() < 0.8) for d in exps]


def _reference_delta(coords) -> FormalSum:
    """The fence restriction by restriction on exponent dicts."""
    tops = sorted({s.index for c in coords for s, _ in c.q.exps if s.kind == "top"})
    r = len(tops)
    if tops != list(range(1, r + 1)):
        raise ValueError("not s1..sr")
    if any(dict(c.q.exps).get(topological(1), 0) < 0 for c in coords):
        raise OutOfClassError("s1 -> 0")
    entries = []
    for k in range(1, r + 1):
        face = []
        for c in coords:
            d = {}
            for s, e in c.q.exps:
                j = s.index
                if s.kind == "top" and j > k:
                    s = topological(j - 1)
                elif s.kind == "top" and k == r == j:
                    continue
                d[s] = d.get(s, 0) + e
            face.append(Coordinate(monomial({s: e for s, e in d.items() if e}),
                                   c.one_minus))
        entries.append((face, (-1) ** k))
    return csum(*entries)


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(0, 4), st.integers(1, 5))
def test_delta_term_matches_restriction_reference(rng, r, n):
    coords = _random_hybrid_coords(rng, r, max(n, r))
    t = CycleTerm(tuple(coords))
    try:
        want = _reference_delta(coords)
    except (ValueError, OutOfClassError) as exc:
        with pytest.raises(type(exc)):
            delta_term(t)
        return
    assert delta_term(t) == want


def _reference_decomposable(t: CycleTerm) -> bool:
    """Some split of the coordinates into two nonempty blocks has no
    shared parameter and topological variables on one side only."""
    if not t.top_syms:
        return False
    params = [{s for s, _ in c.q.exps if s.kind == "param"} for c in t.coords]
    tops = [any(s.kind == "top" for s, _ in c.q.exps) for c in t.coords]
    n = t.n
    for mask in range(1, 2 ** (n - 1)):  # the last coordinate is always in block B
        a = [i for i in range(n) if mask >> i & 1]
        b = [i for i in range(n) if not mask >> i & 1]
        if (not any(params[i] & params[j] for i in a for j in b)
                and not (any(tops[i] for i in a) and any(tops[j] for j in b))):
            return True
    return False


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(1, 7))
def test_topological_decomposability_matches_brute_force(rng, n):
    syms = ([constant("a")] + [parameter(i) for i in (1, 2, 3, 4)]
            + [topological(1), topological(2)])
    coords = [Coordinate(monomial({s: rng.choice((-1, 1))
                                   for s in rng.sample(syms, rng.randint(1, 3))}))
              for _ in range(n)]
    t = CycleTerm(tuple(coords))
    assert is_topologically_decomposable(t) == _reference_decomposable(t)
