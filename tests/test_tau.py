from collections import Counter

import pytest

from forest_cycles import (TauSpec, check_decomposable,
                           check_internal_cancellation, d, deco, standard_spec,
                           tau, tau_trees)
from forest_cycles.forest_algebra import Leaf, Node, edge_count
from forest_cycles.tau import tau_reports
from helpers import left_comb3, right_comb3


CATALAN = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132}


def _is_full_binary(node):
    if isinstance(node, Leaf):
        return True
    return len(node.children) == 2 and all(_is_full_binary(c) for c in node.children)


def _leaves(node):
    if isinstance(node, Leaf):
        return [node.deco]
    out = []
    for c in node.children:
        out.extend(_leaves(c))
    return out


@pytest.mark.parametrize("m", sorted(CATALAN))
def test_term_count_is_catalan(m):
    assert len(tau(standard_spec(m))) == CATALAN[m]


def test_trees_are_trivalent_with_ordered_leaves():
    for m in (2, 3, 4, 5):
        spec = standard_spec(m)
        for T in tau_trees(spec):
            assert T.root_deco.is_unit
            assert _is_full_binary(T.top)
            assert _leaves(T.top) == list(spec.decorations)
            assert edge_count(T) == 2 * m - 1


def test_m3_shapes():
    assert set(tau_trees(standard_spec(3))) == {left_comb3(), right_comb3()}


def test_all_coefficients_are_one():
    for _, c in tau(standard_spec(5)):
        assert c == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        TauSpec((deco("x1"),))
    with pytest.raises(ValueError):
        TauSpec((deco("x1"), deco("x1")))
    with pytest.raises(ValueError):
        TauSpec((deco("x1"), deco("1")))


def test_internal_contributions_cancel():
    for m in (2, 3, 4, 5):
        rep = check_internal_cancellation(standard_spec(m))
        assert rep.passed
        assert not rep.residual_terms
        if m >= 3:
            assert len(rep.pairs) > 0


def test_differential_splits_into_two_trees():
    for m in (3, 4, 5):
        rep = check_decomposable(standard_spec(m))
        assert rep.all_two_trees
        assert set(rep.counts) == {2}


def test_two_tree_report_for_smallest_case():
    rep = check_decomposable(standard_spec(2))
    assert rep.all_two_trees
    assert rep.counts == {2: 3}
    assert rep.note


def test_one_walk_gives_both_reports():
    for m in (2, 3, 4, 5):
        spec = standard_spec(m)
        rep, dec = tau_reports(spec)
        assert rep == check_internal_cancellation(spec)
        assert dec == check_decomposable(spec)
        assert dec.counts == dict(Counter(len(F.trees) for F, _ in d(tau(spec))))
