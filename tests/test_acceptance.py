"""End-to-end acceptance checks for the whole pipeline.

Nine criteria, one test each, every one under a wall-clock budget.  Each
test prints a single pass/fail line; `pytest -v` shows the same verdict
through the test names.
"""

import math
import random
import time
from contextlib import contextmanager

from forest_cycles import (boundary, checks, phi, simplex_integral,
                           standard_spec, tau, tau_trees, tree_sum)
from forest_cycles.checks import random_forest
from forest_cycles.hybrid import load_fixture
from forest_cycles.numerics import check_diffLi
from helpers import bare, csum, om


@contextmanager
def criterion(n, label, limit):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - t0
    if elapsed >= limit:
        print(f"criterion {n} ({label}): FAIL (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"criterion {n} exceeded {limit}s: {elapsed:.2f}s")
    print(f"criterion {n} ({label}): PASS ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_forest_dga_laws():
    with criterion(1, "forest differential laws", 10.0):
        rng = random.Random(20260823)
        forests = [random_forest(rng) for _ in range(200)]
        res = checks.d_squared(forests)
        assert res.passed, res.witness
        res = checks.star_leibniz(zip(forests[0::2], forests[1::2]))
        assert res.passed, res.witness


def test_criterion_2_cycle_dga_laws():
    with criterion(2, "cycle differential laws", 10.0):
        res = checks.boundary_squared(phi(tree_sum(T)) for m in (2, 3, 4, 5)
                                      for T in tau_trees(standard_spec(m)))
        assert res.passed, res.witness
        ca = csum(([bare(u1=1), om(u1=1), om(a=1, u1=-1)], 1))
        cb = csum(([bare(u1=1), om(u1=1), om(b=1, u1=-1)], 1))
        flat = csum(([om(a=1), om(b=1)], 1))
        res = checks.concat_leibniz([(phi(tau(standard_spec(2))), ca), (ca, cb),
                                     (flat, ca)])
        assert res.passed, res.witness


def test_criterion_3_worked_boundary_fixtures():
    with criterion(3, "worked boundary fixtures", 1.0):
        ca = csum(([bare(u1=1), om(u1=1), om(a=1, u1=-1)], 1))
        assert boundary(ca) == csum(([bare(a=1), om(a=1)], 1))
        cab = csum(([om(u1=-1), om(u1=1, a=1, b=1), om(u1=1, b=1)], 1))
        three_terms = csum(
            ([om(a=1, b=1), om(b=1)], 1),
            ([om(a=1, b=1), om(a=-1)], -1),
            ([om(b=1), om(a=1)], 1),
        )
        assert boundary(cab) == three_terms


def test_criterion_4_chain_map():
    with criterion(4, "chain map on all tree-sum trees", 30.0):
        res = checks.chain_map(T for m in (2, 3, 4, 5)
                               for T in tau_trees(standard_spec(m)))
        assert res.passed, res.witness
        assert res.cases == 22


def test_criterion_5_tau_combinatorics():
    with criterion(5, "tree sum combinatorics", 10.0):
        for m, count in [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42), (7, 132)]:
            assert len(tau(standard_spec(m))) == count
        res = checks.tau_cancellation(standard_spec(m) for m in (2, 3, 4, 5))
        assert res.passed, res.witness


def test_criterion_6_admissibility():
    with criterion(6, "admissibility of tree images", 30.0):
        res = checks.admissibility(t for m in (2, 3, 4)
                                   for t, _ in phi(tau(standard_spec(m))))
        assert res.passed, res.witness


def test_criterion_7_bounding_identities():
    with criterion(7, "bounding identities", 5.0):
        fixtures = []
        for name, scale in (("double_log", 1), ("triple_log", -1)):
            chain, target, meta = load_fixture(name)
            assert target == phi(tau(standard_spec(meta["tau_m"]))).scale(scale)
            fixtures.append((name, chain, target))
        res = checks.bounding(fixtures)
        assert res.passed, res.witness


def test_criterion_8_numeric_correspondence():
    with criterion(8, "numeric correspondence", 30.0):
        assert abs(simplex_integral([3.0]) - math.log(2 / 3)) < 1e-9
        for xs in ([3.0], [6.0, 3.0], [12.0, 6.0, 2.0]):
            assert checks.integral_vs_series(xs)[2] < 1e-6
        for name in ("double_log", "triple_log"):
            assert checks.fixture_integral(name)[2] < 1e-6


def test_criterion_9_diff_identity():
    with criterion(9, "difference quotient identity", 5.0):
        points = [(0.3, 0.4), (0.2, 0.3), (-0.4, 0.25), (0.5, -0.35), (0.45, 0.45)]
        for x, y in points:
            assert check_diffLi(x, y) < 1e-5
