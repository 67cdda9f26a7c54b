"""The verification laws, each written down once.

Every exact law of the construction is one function that takes the
cases to check and returns a ``CheckResult``.  A check stops at the
first failing case; its witness names the case and the nonzero
difference, the certificate or the offending term.  The numeric
correspondences return both sides of their identity instead, since
callers print the values.  The CLI ``verify`` suites and the test suite
both call these functions.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from . import forest_algebra as fa
from . import numerics as nm
from . import serialize as sz
from .cycle_algebra import AdmissibilityWalk, boundary, concat
from .forest_cycling import phi
from .hybrid import integral_sign, load_fixture, topological_part, verify_bounding
from .symbols import UNIT, deco
from .tau import d_tau_closed_form, d_tau_parts


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    witness: Optional[str] = None  # the first failing case, when there is one


def _check(name: str, cases, offence) -> CheckResult:
    """Apply ``offence`` to each case in turn; it returns None where the
    law holds and a description of what breaks it where it does not."""
    cases = list(cases)
    for i, case in enumerate(cases):
        why = offence(case)
        if why is not None:
            return CheckResult(name, False, len(cases), f"case {i}: {why}")
    return CheckResult(name, True, len(cases))


# ---------------------------------------------------------------------------
# random inputs

def _random_tree(rng: random.Random, max_edges: int, pool) -> fa.RDecoTree:
    def build(budget):
        # budget = edges available below the current edge
        if budget <= 1 or rng.random() < 0.35:
            return fa.Leaf(deco(rng.choice(pool)))
        arity = 2 if budget < 3 or rng.random() < 0.7 else 3
        shares = [1] * arity
        left = budget - arity
        for _ in range(left):
            shares[rng.randrange(arity)] += 1
        return fa.Node(tuple(build(s) for s in shares))

    root = UNIT if rng.random() < 0.5 else deco(rng.choice(pool))
    return fa.RDecoTree(root, build(rng.randint(1, max_edges) - 1))


def random_forest(rng: random.Random, max_edges: int = 8) -> fa.ForestTerm:
    pool = [f"x{i}" for i in range(1, 10)]
    k = rng.choice([1, 1, 2, 3])
    trees = []
    left = max_edges
    for i in range(k):
        cap = left - (k - 1 - i)
        if cap < 1:
            break
        T = _random_tree(rng, max(1, min(cap, 4)), pool)
        trees.append(T)
        left -= fa.edge_count(T)
    return fa.ForestTerm(tuple(trees))


# ---------------------------------------------------------------------------
# forest laws

def d_squared(forests) -> CheckResult:
    """d(d(F)) = 0 for every forest term."""
    def offence(F):
        S = fa.forest_sum([(F, 1)])
        dd = fa.d(fa.d(S))
        if not dd.is_zero():
            return f"d^2 of {sz.forest_sum_to_latex(S)} is {sz.forest_sum_to_latex(dd)}"
    return _check("d^2 = 0", forests, offence)


def star_leibniz(pairs) -> CheckResult:
    """d(A * B) = d(A) * B + (-1)^e(A) A * d(B) for pairs of forest terms,
    with e(A) the edge count of A; a zero factor holds trivially."""
    def offence(pair):
        A, B = (fa.forest_sum([(F, 1)]) for F in pair)
        if A.is_zero() or B.is_zero():
            return None
        eA = sum(map(fa.edge_count, A.terms()[0].trees))
        gap = (fa.d(fa.star(A, B)) - fa.star(fa.d(A), B)
               - fa.star(A, fa.d(B)).scale((-1) ** eA))
        if not gap.is_zero():
            return (f"A = {sz.forest_sum_to_latex(A)}, B = {sz.forest_sum_to_latex(B)} "
                    f"leave {sz.forest_sum_to_latex(gap)}")
    return _check("graded Leibniz for star", pairs, offence)


def tau_cancellation(specs) -> CheckResult:
    """d(tau) is its closed form: the internal-edge part vanishes and the
    rest equals ``tau.d_tau_closed_form``, the tree-level linearized
    coproduct of I(0; x1..xm; 1), whose terms are products of two trees.
    The witness names m and the first differing forest in ``listed`` order."""
    def offence(spec):
        internal, rest = d_tau_parts(spec)
        if not internal.is_zero():
            return f"m = {spec.m}: {len(internal)} internal-edge results do not cancel"
        closed = d_tau_closed_form(spec)
        gap = rest - closed
        if not gap.is_zero():
            F, _ = sz.listed(gap)[0]
            return (f"m = {spec.m}: {sz.forest_term_to_latex(F)} has coefficient "
                    f"{dict(rest).get(F, 0)} in d(tau) and "
                    f"{dict(closed).get(F, 0)} in the closed form")
    return _check("tau cancellation", specs, offence)


# ---------------------------------------------------------------------------
# cycle laws

def boundary_squared(sums) -> CheckResult:
    """boundary(boundary(Z)) = 0 for every cycle sum."""
    def offence(Z):
        bb = boundary(boundary(Z))
        if not bb.is_zero():
            return f"boundary^2 of {sz.cycle_sum_to_latex(Z)} is {sz.cycle_sum_to_latex(bb)}"
    return _check("boundary^2 = 0", sums, offence)


def concat_leibniz(pairs) -> CheckResult:
    """boundary(A B) = boundary(A) B + (-1)^n(A) A boundary(B) for pairs of
    cycle sums, with n(A) the coordinate count of A; a zero factor holds
    trivially."""
    def offence(pair):
        A, B = pair
        if A.is_zero() or B.is_zero():
            return None
        nA = A.terms()[0].n
        gap = (boundary(concat(A, B)) - concat(boundary(A), B)
               - concat(A, boundary(B)).scale((-1) ** nA))
        if not gap.is_zero():
            return (f"A = {sz.cycle_sum_to_latex(A)}, B = {sz.cycle_sum_to_latex(B)} "
                    f"leave {sz.cycle_sum_to_latex(gap)}")
    return _check("graded Leibniz for concat", pairs, offence)


def chain_map(cases) -> CheckResult:
    """phi(dT) = boundary(phi T) for every tree or forest term."""
    def offence(T):
        F = fa.ForestTerm((T,)) if isinstance(T, fa.RDecoTree) else T
        S = fa.forest_sum([(F, 1)])
        gap = phi(fa.d(S)) - boundary(phi(S))
        if not gap.is_zero():
            return (f"phi(dT) - boundary(phi T) for T = {sz.forest_term_to_latex(F)} "
                    f"is {sz.cycle_sum_to_latex(gap)}")
    return _check("chain map", cases, offence)


def admissibility(terms) -> CheckResult:
    """Every face chain of every term meets the faces properly.  The
    terms share one ``AdmissibilityWalk``, since the faces of a sum's
    terms repeat."""
    walk = AdmissibilityWalk()

    def offence(t):
        chain = walk.violation(t)
        if chain is not None:
            return f"{t} fails along the face chain {chain}"
    return _check("admissibility", terms, offence)


def bounding(fixtures) -> CheckResult:
    """D(chain) - target is a sum of negligible terms, for every
    (name, chain, target) fixture.  The cases are the negligible residual
    terms; the witness is the first term that is not negligible."""
    negligible = 0
    for name, chain, target in fixtures:
        rep = verify_bounding(chain, target)
        negligible += len(rep.residual)
        if not rep.passed:
            t, c = rep.offending[0]
            return CheckResult("bounding", False, negligible,
                               f"fixture {name}: offending {c} * {t}")
    return CheckResult("bounding", True, negligible)


# ---------------------------------------------------------------------------
# numeric correspondences

def integral_vs_series(xs, ctx: nm.NumericContext = nm.DEFAULT_CTX, value=None):
    """(integral, series, gap): the iterated simplex integral at xs equals
    (-1)^m times the series at z_from_x(xs); gap is the distance.  A
    caller that has the integral already passes it as ``value``."""
    if value is None:
        value = nm.simplex_integral(xs, ctx)
    series = nm.multiple_log_series(nm.z_from_x(xs), ctx).real
    return value, series, abs(value - (-1) ** len(xs) * series)


def fixture_integral(name: str, ctx: nm.NumericContext = nm.DEFAULT_CTX):
    """(value, expected, gap): the topological part of a bounding fixture
    integrates to ε(m) times the simplex integral at its point."""
    chain, _target, meta = load_fixture(name)
    assignment = {f"x{i + 1}": v for i, v in enumerate(meta["xs"])}
    value = nm.eval_topological_sum(topological_part(chain), assignment, ctx)
    expected = integral_sign(meta["tau_m"]) * nm.simplex_integral(meta["xs"], ctx)
    return value, expected, abs(value - expected)
