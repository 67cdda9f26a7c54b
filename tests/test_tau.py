import pytest

from forest_cycles import (UNIT, TauSpec, check_decomposable,
                           check_internal_cancellation, checks, d, deco,
                           standard_spec, tau, tau_trees)
from forest_cycles import forest_algebra as fa
from forest_cycles.forest_algebra import (Leaf, Node, RDecoTree, edge_count,
                                          external_decorations)
from forest_cycles.tau import (block_trees, check_tree_budget, d_tau_closed_form,
                               d_tau_parts)
from helpers import left_comb3, right_comb3


CATALAN = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132}
# terms of d(tau), every one a product of two trees
D_TAU_TERMS = {2: 3, 3: 8, 4: 25, 5: 84, 6: 294, 7: 1056, 8: 3861}


@pytest.mark.parametrize("m", sorted(CATALAN))
def test_term_count_is_catalan(m):
    assert len(tau(standard_spec(m))) == CATALAN[m]


def test_trees_are_trivalent_with_ordered_leaves():
    for m in (2, 3, 4, 5):
        spec = standard_spec(m)
        for T in tau_trees(spec):
            # m leaves and 2m - 1 edges: every internal vertex is trivalent
            assert external_decorations(T) == [UNIT, *spec.decorations]
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


def test_tree_budget_admits_m_13_and_refuses_m_14():
    check_tree_budget(13)  # Catalan(12) = 208,012 trees
    for m in (14, 10 ** 9):  # Catalan(13) = 742,900; no decorations are built
        with pytest.raises(ValueError, match=f"tau over {m} decorations has more than"):
            standard_spec(m)


def test_block_trees_take_any_root_and_one_leaf():
    a, x1, x2 = deco("a"), deco("x1"), deco("x2")
    assert block_trees(a, [x1]) == [RDecoTree(a, Leaf(x1))]
    assert block_trees(a, [x1, x2]) == [RDecoTree(a, Node((Leaf(x1), Leaf(x2))))]
    assert block_trees(UNIT, standard_spec(4).decorations) == tau_trees(standard_spec(4))


def test_internal_contributions_cancel():
    for m in sorted(D_TAU_TERMS):
        rep = check_internal_cancellation(standard_spec(m))
        assert rep.passed
        assert not rep.residual_terms


def test_differential_splits_into_two_trees():
    for m, terms in D_TAU_TERMS.items():
        rep = check_decomposable(standard_spec(m))
        assert rep.all_two_trees
        assert rep.counts == {2: terms}


def test_two_tree_report_for_smallest_case():
    # m = 2 has no internal edge: every term comes from a leaf edge or the
    # root edge at the one trivalent vertex, and still has two trees
    rep = check_decomposable(standard_spec(2))
    assert rep.m == 2
    assert rep.all_two_trees
    assert rep.counts == {2: 3}


def test_d_tau_is_its_closed_form():
    for m in sorted(D_TAU_TERMS):
        spec = standard_spec(m)
        internal, rest = d_tau_parts(spec)
        assert internal.is_zero()
        assert rest == d_tau_closed_form(spec)
        assert rest == d(tau(spec))


@pytest.mark.parametrize("change", [
    lambda comps, sign: (comps, -sign),
    lambda comps, sign: (comps[:1] + tuple(RDecoTree(UNIT, b.top) for b in comps[1:]), sign),
], ids=["flipped_sign", "branches_at_unit"])
def test_closed_form_catches_broken_leaf_contractions(change, monkeypatch):
    # both leave the internal edges cancelling and every term of d(tau) a
    # product of two trees; only the law itself sees them
    real = fa.contract_components

    def mutated(tree, path, *walk):
        cut = real(tree, path, *walk)
        if cut is None or not path or isinstance(fa.node_at(tree, path), Node):
            return cut
        return change(*cut)  # a leaf edge

    monkeypatch.setattr(fa, "contract_components", mutated)
    res = checks.tau_cancellation(standard_spec(m) for m in range(2, 6))
    assert not res.passed
    assert res.witness.startswith("case 0: m = 2: ")
