"""The per-call readings table: sharing it changes no result, and no
table outlives the call that made it."""

import gc
import random
import re
from importlib import resources

import pytest

from forest_cycles import (D, OutOfClassError, boundary, checks, concat, is_admissible,
                           phi, standard_spec, tau, tree_sum)
from forest_cycles import cycle_algebra as ca
from forest_cycles import forest_cycling
from forest_cycles.cycle_algebra import INF, Readings, face_outcome, normalize
from forest_cycles.serialize import cycle_sum_from_json
from forest_cycles.symbols import RANK_PARAM
from helpers import (bare, fixture_data, fixture_terms, generic_forest, lf, nd, om, random_coords,
                     tr)


def _edge_cases():
    tied = tr("1", nd(nd(lf("x"), lf("y")), nd(lf("x"), lf("y")), nd(lf("x"), lf("y"))))
    return [
        [om()],                                # the unit monomial: zero
        [om(a=1), om(a=1)],                    # equal coordinates: zero
        [om(u1=1), om(u2=1)],                  # an odd automorphism: zero
        [om(u7=1, a=1), om(u7=-1, b=1)],       # a relabeling
        [bare(u1=1), om(u1=1), om(a=1, u1=-1)],
        [om(u1=2, s1=1, a=-1), bare(u2=-1, s2=1), om(u1=1, u2=1)],
        list(forest_cycling.phi_tree(tied).coords),   # tied colours
    ]


def _forest_images():
    rng = random.Random(5)
    return [forest_cycling.raw_image(generic_forest(rng, 14).trees) for _ in range(40)]


def _random_coords():
    # bare and 1 - q coordinates over a small pool of symbols, so the same
    # monomial comes back across inputs, in both shapes
    rng = random.Random(11)
    return [random_coords(rng, ("u1", "u2", "u3", "a", "s1"), 5, 0.5) for _ in range(300)]


def _tau_face_inputs():
    """What every face of phi(tau_m), m <= 5, hands to normalize."""
    seen = []
    orig = ca.normalize

    def spy(coords, readings=None):
        coords = tuple(coords)
        seen.append(coords)
        return orig(coords, readings=readings)

    ca.normalize = spy
    try:
        for m in range(2, 6):
            boundary(phi(tau(standard_spec(m))))
    finally:
        ca.normalize = orig
    return seen


def _inputs():
    return ([t.coords for t in fixture_terms()] + _edge_cases() + _random_coords()
            + _forest_images() + _tau_face_inputs())


def test_normalize_with_a_shared_table_equals_a_fresh_one():
    inputs = _inputs()
    shared = Readings()
    for coords in inputs:
        normalize(coords, readings=shared)  # every reading made before the checks
    assert len(shared) > 100
    for coords in inputs:
        fresh = normalize(coords)
        assert normalize(coords, readings=shared) == fresh
        if fresh is not None:
            # the parameter tuple that normalize sets is what a scan finds
            assert fresh[0].params == fresh[0]._syms_of_rank(RANK_PARAM)


def _outcome(t, i, eps, reading=None):
    try:
        return face_outcome(t, i, eps, reading=reading)
    except OutOfClassError as exc:
        return str(exc)


def test_face_outcome_with_a_shared_term_reading_equals_a_lone_call():
    terms = [res[0] for res in map(normalize, _inputs()) if res is not None]
    shared = Readings()
    checked = 0
    for t in terms:
        reading = ca._read_term(t, shared)
        for i in range(1, t.n + 1):
            for eps in (0, INF):
                assert _outcome(t, i, eps, reading) == _outcome(t, i, eps)
                checked += 1
    assert checked > 3000
    with pytest.raises(ValueError):
        face_outcome(terms[0], terms[0].n + 1, 0, reading=ca._read_term(terms[0], shared))


def _tables():
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, (Readings, forest_cycling._DecoSymbols))]


def _module_dicts():
    return {name: len(v) if isinstance(v, dict) else None for name, v in vars(ca).items()}


def test_no_readings_table_outlives_its_call():
    live = Readings()
    assert any(o is live for o in _tables())  # the search sees a table
    del live
    before = _module_dicts()
    assert _tables() == []
    S = tree_sum(tr("1", nd(nd(lf("x1"), lf("x2")), lf("x3"), nd(lf("x4"), lf("x5")))))
    Z = phi(S)
    assert not boundary(Z).is_zero()
    assert is_admissible(Z.terms()[0]).admissible
    assert checks.admissibility(phi(tau(standard_spec(4))).terms()).passed
    assert not concat(Z, phi(tau(standard_spec(3)))).is_zero()
    chain = cycle_sum_from_json(fixture_data("triple_log")["chain"])
    assert not D(chain).is_zero()  # delta_term on every term
    assert _tables() == []
    assert _module_dicts() == before


def test_only_cycle_algebra_names_the_readings_table():
    # every other module builds a cycle sum through cycle_sum and walks
    # face chains through an AdmissibilityWalk
    modules = [f for f in resources.files("forest_cycles").iterdir() if f.name.endswith(".py")]
    assert len(modules) > 10
    naming = {f.name for f in modules if re.search(r"\bReadings\b", f.read_text())}
    assert naming == {"cycle_algebra.py"}
