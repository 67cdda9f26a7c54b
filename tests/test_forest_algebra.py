import random

import pytest

from forest_cycles import checks, contract, d, grade, is_generic, star, tree_sum
from forest_cycles.checks import random_forest
from forest_cycles.forest_algebra import (MAX_TREE_DEPTH, Node, d_contributions,
                                          edge_count, edge_walk, forest_sum, node_at)
from helpers import forest, left_comb3, lf, nd, tr, two_leaf_tree


def test_edge_order_is_preorder():
    T = left_comb3()
    assert [p for p, _ in edge_walk(T)] == [(), (0,), (0, 0), (0, 1), (1,)]
    assert edge_count(T) == 5


def test_grade_counts_edges_and_leaves():
    assert grade(forest(two_leaf_tree())) == (3, 2)
    assert grade(forest(left_comb3())) == (5, 3)
    assert grade(forest(two_leaf_tree(), tr("1", lf("x3")))) == (4, 3)


def test_only_internal_edges_contract_one_tree_to_one_tree():
    # the rule by which ``tau.d_tau_parts`` tells the internal edges apart
    rng = random.Random(23)
    trees = [left_comb3()] + [T for _ in range(200) for T in random_forest(rng, 14).trees]
    for T in trees:
        for _, p, result, _ in d_contributions(forest(T)):
            if result is not None:
                internal = p != () and isinstance(node_at(T, p), Node)
                assert (len(result.trees) == 1) == internal, (T, p)


def test_node_at_paths():
    T = left_comb3()
    assert node_at(T, (1,)) == lf("x3")
    assert node_at(T, (0, 1)) == lf("x2")
    with pytest.raises(ValueError):
        node_at(T, (2,))


def test_contract_root_edge_splits_at_merged_root():
    F = contract(two_leaf_tree(), ())
    assert F is not None
    assert F.sign == 1
    assert set(F.trees) == {tr("1", lf("x1")), tr("1", lf("x2"))}


def test_contract_leaf_edge_plants_siblings():
    F = contract(two_leaf_tree(), (0,))
    assert F is not None
    assert set(F.trees) == {tr("1", lf("x1")), tr("x1", lf("x2"))}


def test_contract_internal_edge_splices_children():
    # collapsing the inner edge of the left comb leaves one trivalent vertex
    F = contract(left_comb3(), (0,))
    assert F is not None
    assert F.trees == (tr("1", nd(lf("x1"), lf("x2"), lf("x3"))),)


def test_contract_only_edge_is_degenerate():
    assert contract(tr("1", lf("x1")), ()) is None


def test_contract_invalid_edge():
    with pytest.raises(ValueError):
        contract(two_leaf_tree(), (5,))


@pytest.mark.parametrize("tree, expansion", [
    (two_leaf_tree(), [
        (forest(tr("1", lf("x1")), tr("1", lf("x2"))), 1),
        (forest(tr("1", lf("x1")), tr("x1", lf("x2"))), -1),
        (forest(tr("1", lf("x2")), tr("x2", lf("x1"))), 1),
    ]),
    # the last two terms contract the leaf edges to x1 and x2, each an odd
    # block swap: the branch planted at the merged vertex moves past x3
    (left_comb3(), [
        (forest(tr("1", lf("x3")), tr("1", nd(lf("x1"), lf("x2")))), -1),
        (forest(tr("1", lf("x3")), tr("x3", nd(lf("x1"), lf("x2")))), 1),
        (forest(tr("1", nd(lf("x1"), lf("x2"), lf("x3")))), -1),
        (forest(tr("x1", lf("x2")), tr("1", nd(lf("x1"), lf("x3")))), 1),
        (forest(tr("x2", lf("x1")), tr("1", nd(lf("x2"), lf("x3")))), -1),
    ]),
], ids=["two_leaf", "left_comb3"])
def test_d_matches_hand_expansion(tree, expansion):
    assert d(tree_sum(tree)) == forest_sum(expansion)


def test_d_squared_seeded_sample():
    rng = random.Random(11)
    res = checks.d_squared([random_forest(rng) for _ in range(30)])
    assert res.passed, res.witness


def test_graded_leibniz_seeded_sample():
    rng = random.Random(12)
    pairs = [(random_forest(rng, 5), random_forest(rng, 5)) for _ in range(15)]
    res = checks.star_leibniz(pairs)
    assert res.passed, res.witness


def test_star_koszul_swap_sign():
    A = tree_sum(tr("1", lf("x1")))
    B = tree_sum(tr("1", lf("x2")))
    assert star(A, B) == star(B, A).scale(-1)


def test_equal_odd_factor_kills_product():
    A = tree_sum(tr("1", lf("x1")))
    assert star(A, A).is_zero()
    assert forest_sum([(forest(tr("1", lf("x1")), tr("1", lf("x1"))), 1)]).is_zero()


def test_even_factors_commute():
    T1 = tr("1", nd(lf("x1"), lf("x2"), lf("x3")))
    T2 = tr("1", nd(lf("x4"), lf("x5"), lf("x6")))
    assert edge_count(T1) == 4
    assert star(tree_sum(T1), tree_sum(T2)) == star(tree_sum(T2), tree_sum(T1))


def test_genericity():
    assert is_generic(forest(two_leaf_tree()))
    assert not is_generic(forest(tr("1", nd(lf("x1"), lf("x1")))))
    # joint distinctness counts the unit root, so two planted roots collide
    assert not is_generic(forest(tr("1", lf("x1")), tr("1", lf("x2"))))
    assert is_generic(forest(tr("1", lf("x1")), tr("x2", lf("x3"))))
    assert not is_generic(forest(tr("1", lf("x1")), tr("x1", lf("x2"))))


def test_grade_additive_under_star():
    A = tree_sum(two_leaf_tree())
    B = tree_sum(tr("1", lf("x3")))
    prod = star(A, B)
    (F, _), = prod
    assert grade(F) == (4, 3)


def _chain(depth, bottom):
    """A unit-rooted chain of ``depth`` internal levels, a leaf to the left
    of each, whose last leaf is ``bottom``: chains of one depth tie on
    every level but the last."""
    node = nd(lf("x1"), lf(bottom))
    for _ in range(depth - 1):
        node = nd(lf("x1"), node)
    return tr("1", node)


def test_tied_chains_at_the_depth_bound_go_through_the_forest_layer():
    a, b = _chain(MAX_TREE_DEPTH, "y"), _chain(MAX_TREE_DEPTH, "z")
    assert edge_count(a) == 2 * MAX_TREE_DEPTH + 1  # odd, so they anticommute
    S = forest_sum([(forest(b, a), 1), (forest(a, a), 1)])
    assert list(S) == [(forest(a, b), -1)]
    # d(a * b) = d(a) * b - a * d(b): forest_sum, d and star on both chains
    res = checks.star_leibniz([(forest(a), forest(b))])
    assert res.passed, res.witness


def test_tree_over_the_depth_bound_is_refused():
    with pytest.raises(ValueError, match="nested too deeply"):
        _chain(1000, "y")
    with pytest.raises(ValueError, match="nested too deeply"):
        _chain(MAX_TREE_DEPTH + 1, "y")
