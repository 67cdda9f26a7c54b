import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_cycles import (UNIT, Leaf, Node, RDecoTree, checks, d, deco, phi,
                           phi_tree, standard_spec, tau, tau_trees, tree_sum)
from forest_cycles.forest_algebra import forest_sum
from helpers import (csum, forest, generic_forest, left_comb3, lf, nd, om,
                     right_comb3, tr, two_leaf_tree)


def test_image_of_two_leaf_tree():
    t = phi_tree(two_leaf_tree())
    assert list(t.coords) == [om(u1=-1), om(x1=-1, u1=1), om(x2=-1, u1=1)]


def test_image_keeps_display_edge_order():
    # one fresh parameter per internal vertex, numbered in preorder
    assert list(phi_tree(left_comb3()).coords) == [
        om(u1=-1), om(u1=1, u2=-1), om(x1=-1, u2=1),
        om(x2=-1, u2=1), om(x3=-1, u1=1)]
    assert list(phi_tree(right_comb3()).coords) == [
        om(u1=-1), om(x1=-1, u1=1), om(u1=1, u2=-1),
        om(x2=-1, u2=1), om(x3=-1, u2=1)]


def test_phi_canonicalizes_terms():
    S = phi(tree_sum(two_leaf_tree()))
    assert S == csum(([om(u1=-1), om(x1=-1, u1=1), om(x2=-1, u1=1)], 1))


def test_phi_numbers_parameters_across_forest():
    F = forest(tr("1", nd(lf("x1"), lf("x2"))), tr("1", nd(lf("x3"), lf("x4"))))
    (t, c), = phi(forest_sum([(F, 1)]))
    assert c == 1
    assert t.n == 6
    assert len(t.params) == 2


def test_phi_empty_on_unit_root_edge_only():
    # a bare edge tree has no internal vertex and a one-coordinate image
    t = phi_tree(tr("1", lf("x1")))
    assert t.n == 1
    assert list(t.coords) == [om(x1=-1)]


def test_phi_maps_nongeneric_input_without_logging(caplog):
    F = forest(tr("1", lf("x1")), tr("x1", lf("x2")))
    assert not phi(forest_sum([(F, 1)])).is_zero()
    # d makes non-generic forests by design; mapping them is not news
    with caplog.at_level(logging.DEBUG, logger="forest_cycles"):
        phi(d(tau(standard_spec(4))))
    assert not [r for r in caplog.records if r.name.startswith("forest_cycles")]


@settings(max_examples=100)
@given(st.randoms(use_true_random=False))
def test_chain_map_and_boundary_squared_on_generic_forests(rng):
    # 1-3 trees, valency up to 5, at most 14 edges, every name fresh: a
    # leaf named as its root would take boundary(phi) out of the class
    F = generic_forest(rng, 14)
    res = checks.chain_map([F])
    assert res.passed, res.witness
    res = checks.boundary_squared([phi(forest_sum([(F, 1)]))])
    assert res.passed, res.witness


def test_images_of_tree_sum_terms_stay_distinct():
    # canonical relabeling must not merge distinct tree images
    spec = standard_spec(4)
    images = [phi(tree_sum(T)) for T in tau_trees(spec)]
    terms = [S.terms()[0] for S in images]
    assert len(set(terms)) == 5
    for S in images:
        (_, c), = S
        # canonical relabeling may flip orientation but never the weight
        assert c in (1, -1)


def _generic_binary_tree(depth: int) -> RDecoTree:
    names = iter(f"y{i}" for i in range(1, 2 ** depth + 1))

    def build(level):
        if level == 0:
            return Leaf(deco(next(names)))
        return Node((build(level - 1), build(level - 1)))

    return RDecoTree(UNIT, build(depth))


def test_depth_seven_generic_binary_tree_maps_and_commutes():
    # two refinement rounds leave cells of 2, 4 and 8 parameters here;
    # the fixed point gives every parameter a colour of its own
    T = _generic_binary_tree(7)
    (t, c), = phi(tree_sum(T))
    assert c in (1, -1)
    assert t.n == 255 and len(t.params) == 127
    res = checks.chain_map([T])
    assert res.passed, res.witness


@pytest.mark.parametrize("k", [7, 8])
def test_root_over_identical_corollas_maps_and_commutes(k):
    # one cell of k tied parameters (k! relabelings), which the search
    # prunes with the swaps of the copies that it finds
    T = tr("1", nd(*[nd(lf("x"), lf("y"), lf("z")) for _ in range(k)]))
    (t, c), = phi(tree_sum(T))
    assert c in (1, -1)
    assert t.n == 4 * k + 1 and len(t.params) == k + 1
    res = checks.chain_map([T])
    assert res.passed, res.witness


def test_root_over_copies_of_a_two_vertex_tree_maps_and_commutes():
    # two tied cells of k parameters, the copies' vertices and their
    # children; the search must not try the k! ways to pair them up
    def root_over(k, leaves):
        return tr("1", nd(*[nd(lf("x"), nd(*map(lf, leaves))) for _ in range(k)]))
    # swapping two copies swaps their five edges, an odd automorphism
    assert phi(tree_sum(root_over(12, "yz"))).is_zero()
    T = root_over(8, "yzw")
    (t, c), = phi(tree_sum(T))
    assert t.n == 6 * 8 + 1 and len(t.params) == 2 * 8 + 1
    res = checks.chain_map([T])
    assert res.passed, res.witness


def test_root_over_copies_of_a_three_vertex_chain_maps_and_commutes():
    # three tied cells of 16 parameters, linked only through one another:
    # the search individualizes one copy at a time and refines it off
    T = tr("1", nd(*[nd(lf("x"), nd(lf("y"), nd(lf("z"), lf("w"), lf("v"))))
                     for _ in range(16)]))
    (t, c), = phi(tree_sum(T))
    assert t.n == 8 * 16 + 1 and len(t.params) == 3 * 16 + 1
    res = checks.chain_map([T])
    assert res.passed, res.witness
