import math
import random
import tracemalloc

import pytest

from forest_cycles import (NumericContext, check_diffLi, eval_topological_cycle,
                           eval_topological_sum, multiple_log_series,
                           simplex_integral, x_from_z, z_from_x)
from forest_cycles.numerics import (MAX_QUADRATURE_ORDER, diff_li11_coefficients,
                                    integral_error_estimate, li1)
from helpers import bare, csum, ct, load_bench, om


LI_11 = 0.03833434649573273        # weight 2 series at (1/2, 1/3)
LI_111 = 0.0021225859622735405     # weight 3 series at (1/2, 1/3, 1/2)


def test_li1_is_minus_log():
    assert li1(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert li1(-1.0) == pytest.approx(-math.log(2), abs=1e-15)


def test_depth_one_series():
    assert multiple_log_series([0.5]).real == pytest.approx(math.log(2), abs=1e-12)


def test_series_anchor_values():
    assert multiple_log_series([0.5, 1 / 3]).real == pytest.approx(LI_11, abs=1e-15)
    assert multiple_log_series([0.5, 1 / 3, 0.5]).real == pytest.approx(
        LI_111, abs=1e-15)


def test_series_rejects_arguments_off_the_polydisc():
    with pytest.raises(ValueError):
        multiple_log_series([2.0])
    with pytest.raises(ValueError):
        multiple_log_series([0.5, 1.0])


def test_series_truncation_guard():
    # the tail bound at 0.99, about 4.4e-3, is over the default tolerance
    with pytest.raises(ValueError, match="tail bound"):
        multiple_log_series([0.99])


def test_variable_change_round_trip():
    x = [12.0, 6.0, 2.0]
    z = z_from_x(x)
    assert z == [0.5, 1 / 3, 0.5]
    assert x_from_z(z) == pytest.approx(x)


def test_depth_one_integral_closed_form():
    assert simplex_integral([3.0]) == pytest.approx(math.log(2 / 3), abs=1e-12)


def test_integral_matches_signed_series():
    assert simplex_integral([6.0, 3.0]) == pytest.approx(LI_11, abs=1e-12)
    assert simplex_integral([12.0, 6.0, 2.0]) == pytest.approx(-LI_111, abs=1e-12)


def test_integral_error_estimate_is_tight():
    assert integral_error_estimate([6.0, 3.0], NumericContext(quadrature_order=8)) < 1e-12


def test_context_validation():
    with pytest.raises(ValueError):
        NumericContext(quadrature_order=1)
    with pytest.raises(ValueError):
        NumericContext(tolerance=0.0)
    with pytest.raises(ValueError):
        NumericContext(quadrature_order=MAX_QUADRATURE_ORDER + 1)
    with pytest.raises(ValueError, match="must be finite"):
        NumericContext(tolerance=math.inf)


def _oracle_points():
    """Seeded real series arguments, |z_i| in [0.15, 0.6], depths 1..8."""
    rng = random.Random(5)
    return [[rng.choice((-1, 1)) * rng.uniform(0.15, 0.6) for _ in range(depth)]
            for depth in range(1, 9) for _ in range(4)]


def test_integral_matches_series_to_depth_eight():
    for z in _oracle_points():
        series = multiple_log_series(z).real
        value = simplex_integral(x_from_z(z))
        assert value == pytest.approx((-1) ** len(z) * series, rel=1e-12, abs=0)


def test_integral_and_series_match_mpmath_to_depth_eight():
    pytest.importorskip("mpmath")
    nested_sum = load_bench("oracle").nested_sum  # the benchmark's oracle, at 30 digits
    for z in _oracle_points():
        ref = nested_sum(z).real
        assert multiple_log_series(z).real == pytest.approx(ref, rel=1e-12, abs=0)
        assert simplex_integral(x_from_z(z)) == pytest.approx(
            (-1) ** len(z) * ref, rel=1e-12, abs=0)


def test_integral_error_estimate_memory_is_small():
    x = x_from_z([0.5, -0.3, 0.4, 0.6])
    tracemalloc.start()
    try:
        assert integral_error_estimate(x) < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_topological_cycle_value_and_orientation():
    vals = {"x1": 6.0, "x2": 3.0}
    t = ct(om(s1=1, x1=-1), om(s2=1, x2=-1))
    ref = simplex_integral([6.0, 3.0])
    assert eval_topological_cycle(t, vals) == pytest.approx(ref, abs=1e-14)
    swapped = ct(om(s2=1, x2=-1), om(s1=1, x1=-1))
    assert eval_topological_cycle(swapped, vals) == pytest.approx(-ref, abs=1e-14)


def test_topological_sum_scales_with_coefficients():
    vals = {"x1": 6.0, "x2": 3.0}
    S = csum(([om(s1=1, x1=-1), om(s2=1, x2=-1)], -2))
    ref = simplex_integral([6.0, 3.0])
    got = eval_topological_sum(S, vals)
    # csum sorting may flip the stored orientation; only the product matters
    assert abs(got) == pytest.approx(2 * abs(ref), abs=1e-13)


def test_topological_cycle_input_validation():
    with pytest.raises(ValueError):
        eval_topological_cycle(ct(om(s1=1, x1=-1)), {})
    with pytest.raises(ValueError):
        eval_topological_cycle(ct(om(s1=2, x1=-1)), {"x1": 6.0})
    with pytest.raises(ValueError):
        eval_topological_cycle(ct(bare(s1=1, x1=-1)), {"x1": 6.0})


def test_difference_quotient_identity_at_zero():
    # at x = 0 the quotient Li1(xy)/x of the first coefficient takes its limit y
    assert check_diffLi(0.0, 0.4) < 1e-6
    A0, _ = diff_li11_coefficients(0.0, 0.4)
    assert A0 == pytest.approx(li1(0.4) - 0.4, abs=1e-12)
