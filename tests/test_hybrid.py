import pytest

from forest_cycles import (D, checks, delta, is_negligible, load_fixture, phi,
                           standard_spec, tau, topological_part,
                           verify_bounding)
from forest_cycles.formal import FormalSum
from forest_cycles.hybrid import (delta_term, has_constant_coordinate,
                                  is_topologically_decomposable,
                                  topological_dimension)
from helpers import csum, ct, om


def _eta1():
    return csum(([om(s1=1, u1=-1), om(u1=1, x1=-1), om(u1=1, x2=-1)], 1))


def test_topological_dimension_and_contiguity():
    (t, _), = _eta1().items()
    assert topological_dimension(t) == 1
    gap = ct(om(s2=1, x1=-1))
    with pytest.raises(ValueError):
        delta_term(gap)


def test_delta_vanishes_without_topological_variables():
    S = csum(([om(u1=1, a=1), om(u1=-1)], 1))
    assert delta(S).is_zero()


def test_delta_single_level_erases_the_variable():
    (t, _), = _eta1().items()
    got = delta_term(t)
    want = csum(([om(x1=-1, u1=1), om(x2=-1, u1=1), om(u1=-1)], -1))
    assert got == want


def test_delta_two_level_fence():
    S = csum(([om(s1=1, x1=-1), om(s2=1, u1=-1),
               om(u1=1, x2=-1), om(u1=1, x3=-1)], 1))
    (t, _), = S.items()
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
    assert is_negligible(const)

    split = ct(om(s1=1, x1=-1), om(u1=1, x2=-1), om(u1=1, x3=-1))
    assert not has_constant_coordinate(split)
    assert is_topologically_decomposable(split)
    assert is_negligible(split)

    (linked, _), = _eta1().items()
    assert not is_negligible(linked)

    pure = ct(om(u1=1, x1=-1), om(u1=-1))
    assert not is_topologically_decomposable(pure)
    assert not is_negligible(pure)


def test_bounding_fixtures_pass():
    for name, residuals in (("double_log", 3), ("triple_log", 13)):
        chain, target, _ = load_fixture(name)
        rep = verify_bounding(chain, target)
        assert rep.passed, rep.summary()
        assert len(rep.residual) == residuals
        assert not rep.offending
        for _, _, reason in rep.residual:
            assert reason in ("constant coordinate", "topologically decomposable")


def test_bounding_reports_offenders_against_wrong_target():
    chain, _, _ = load_fixture("double_log")
    rep = verify_bounding(chain, FormalSum())
    assert not rep.passed
    assert rep.offending
    assert "FAIL" in rep.summary()
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
