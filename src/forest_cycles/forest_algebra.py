"""The bigraded DGA of R-deco forests.

Trees are planted plane trees: the root is an external vertex of valency
one and internal vertices have valency at least three.  All external
vertices (root and leaves) carry decorations.  A forest term is a signed
list of such trees; sums of forest terms with rational coefficients form
the free graded commutative algebra on trees, graded by edge count.

Orientations are stored as a single sign against the canonical edge
order: the depth-first listing of edges (root edge first, children in
planar order, recursively), concatenated over the trees of a forest in
their canonical sorted order.  A product or a contraction first lists
its trees in an order whose edges follow the inherited edge order (a
contraction up to one block swap, whose parity it carries), and
``canonical_term`` then adds the Koszul sign of sorting those trees, so
the product and the differential signs come out of one mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .formal import FormalSum, sort_with_parity
from .symbols import DecoSymbol


@dataclass(frozen=True)
class Leaf:
    deco: DecoSymbol


@dataclass(frozen=True)
class Node:
    children: Tuple["TreeNode", ...]

    def __post_init__(self):
        # valency >= 3: one edge up, at least two down
        if len(self.children) < 2:
            raise ValueError("internal vertex needs at least 2 children")


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True)
class RDecoTree:
    """Planted plane tree; ``top`` hangs below the root edge."""

    root_deco: DecoSymbol
    top: TreeNode


@dataclass(frozen=True)
class ForestTerm:
    """Ordered list of trees with a sign relative to canonical orientation."""

    trees: Tuple[RDecoTree, ...]
    sign: int = 1


EMPTY_FOREST = ForestTerm(())


# ---------------------------------------------------------------------------
# edges and traversal

def canonical_edge_order(tree: RDecoTree) -> list:
    """Depth-first edge listing; an edge is the path of its far vertex.

    The root edge is the empty path ().  The edge from the node at path p
    to its j-th child is p + (j,).
    """
    order = [()]

    def rec(node, path):
        if isinstance(node, Node):
            for j, ch in enumerate(node.children):
                p = path + (j,)
                order.append(p)
                rec(ch, p)

    rec(tree.top, ())
    return order


def node_at(tree: RDecoTree, path: tuple) -> TreeNode:
    node = tree.top
    for j in path:
        if not isinstance(node, Node) or j >= len(node.children):
            raise ValueError(f"invalid edge handle {path!r}")
        node = node.children[j]
    return node


def edge_count(tree: RDecoTree) -> int:
    n = 0
    stack = [tree.top]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, Node):
            stack.extend(node.children)
    return n


def leaf_count(tree: RDecoTree) -> int:
    n = 0
    stack = [tree.top]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            n += 1
        else:
            stack.extend(node.children)
    return n


def external_decorations(tree: RDecoTree) -> list:
    """Root decoration plus leaf decorations, in planar order."""
    out = [tree.root_deco]
    stack = [tree.top]
    while stack:
        node = stack.pop(0)
        if isinstance(node, Leaf):
            out.append(node.deco)
        else:
            stack = list(node.children) + stack
    return out


def edge_is_internal(tree: RDecoTree, path: tuple) -> bool:
    """True iff both endpoints of the edge are internal vertices."""
    if path == ():
        return False
    return isinstance(node_at(tree, path), Node)


def grade(F: ForestTerm) -> Tuple[int, int]:
    """(n, p) = (total edges, total leaves)."""
    return (sum(edge_count(t) for t in F.trees),
            sum(leaf_count(t) for t in F.trees))


def is_generic_tree(T: RDecoTree) -> bool:
    decos = external_decorations(T)
    return len(decos) == len(set(decos))


def is_generic(F: ForestTerm) -> bool:
    """Joint distinctness of all external decorations across the forest."""
    decos = []
    for t in F.trees:
        decos.extend(external_decorations(t))
    return len(decos) == len(set(decos))


# ---------------------------------------------------------------------------
# canonical form

def _node_key(node: TreeNode) -> tuple:
    if isinstance(node, Leaf):
        return (0, node.deco.sort_key())
    return (1,) + tuple(_node_key(ch) for ch in node.children)


def tree_sort_key(tree: RDecoTree) -> tuple:
    return (edge_count(tree), tree.root_deco.sort_key(), _node_key(tree.top))


def canonical_term(F: ForestTerm) -> Optional[ForestTerm]:
    """Sorted-tree representative with the sign folded in; None if the
    term is zero (two equal trees of odd degree)."""
    trees, ksign = sort_with_parity(F.trees, tree_sort_key,
                                    odd=lambda t: edge_count(t) % 2 == 1)
    for a, b in zip(trees, trees[1:]):
        if a == b and edge_count(a) % 2 == 1:
            return None
    return ForestTerm(trees, F.sign * ksign)


def add_forest(out: FormalSum, F: ForestTerm, coeff) -> None:
    """Canonicalize and accumulate into a sum keyed by sign-free terms."""
    cf = canonical_term(F)
    if cf is None:
        return
    out.add_term(ForestTerm(cf.trees, 1), Fraction(coeff) * cf.sign)


def forest_sum(terms) -> FormalSum:
    out = FormalSum()
    for F, c in terms:
        add_forest(out, F, c)
    return out


def tree_sum(T: RDecoTree, coeff=1) -> FormalSum:
    return forest_sum([(ForestTerm((T,)), coeff)])


# ---------------------------------------------------------------------------
# product

def star(A: FormalSum, B: FormalSum) -> FormalSum:
    """Graded commutative product: disjoint union of forests.

    The orientation of the product term is the edges of A followed by the
    edges of B; canonicalization converts that to the sorted-tree
    orientation, which is where the Koszul signs come from.
    """
    out = FormalSum()
    for Fa, ca in A:
        for Fb, cb in B:
            add_forest(out, ForestTerm(Fa.trees + Fb.trees, Fa.sign * Fb.sign),
                       ca * cb)
    return out


# ---------------------------------------------------------------------------
# contraction

def _splice(node: Node, path: tuple) -> Node:
    """Replace the Node child at ``path`` by its own children, in place in
    the planar order."""
    j = path[0]
    if len(path) == 1:
        far = node.children[j]
        return Node(node.children[:j] + far.children + node.children[j + 1:])
    return Node(node.children[:j]
                + (_splice(node.children[j], path[1:]),)
                + node.children[j + 1:])


def _replace(node: TreeNode, path: tuple, new: TreeNode) -> TreeNode:
    if not path:
        return new
    j = path[0]
    return Node(node.children[:j]
                + (_replace(node.children[j], path[1:], new),)
                + node.children[j + 1:])


def contract_components(tree: RDecoTree, path: tuple):
    """Contract one edge; returns (components, sign), or None when the
    contraction is degenerate.

    The components are listed so that their canonical edge orders,
    concatenated, are the canonical edge order of ``tree`` without
    ``path``, up to one block swap whose parity is ``sign``.  The
    degenerate case is the contraction of the only edge of a single-edge
    tree, whose result has no edges left; its contribution to the
    differential is zero (the differential preserves the leaf count, and
    no nonempty forest has zero edges and one leaf).
    """
    far = node_at(tree, path)

    if path == ():
        if isinstance(far, Leaf):
            return None
        # root edge: the root and the top vertex merge into a new root
        # carrying the root decoration; every child is planted there.
        return tuple(RDecoTree(tree.root_deco, ch) for ch in far.children), 1

    if isinstance(far, Node):
        # internal edge: splice the far children into the parent list,
        # which keeps every other edge in depth-first order
        return (RDecoTree(tree.root_deco, _splice(tree.top, path)),), 1

    # leaf edge: merge the leaf into its parent vertex, which then carries
    # the leaf decoration, and split there.  The component containing the
    # original root keeps it and sees the merged vertex as a leaf; every
    # other branch is planted at the merged vertex.
    q, j = path[:-1], path[-1]
    lam = far.deco
    root = RDecoTree(tree.root_deco, _replace(tree.top, q, Leaf(lam)))
    branches = tuple(RDecoTree(lam, ch)
                     for k, ch in enumerate(node_at(tree, q).children) if k != j)
    # In ``tree`` the branch edges come right after the edge q, before the
    # root component's remaining edges; listing the root component first
    # moves the ``below`` branch edges past those ``after`` edges.
    order = canonical_edge_order(root)
    after = len(order) - 1 - order.index(q)
    below = edge_count(tree) - 1 - len(order)
    return (root,) + branches, (-1) ** (after * below)


def d_contributions(F: ForestTerm):
    """Per-edge contraction contributions of a forest term.

    The edges are taken in the orientation order of ``F``: its trees as
    listed, each in canonical edge order.  Contracting the k-th edge
    carries (-1)^k, and ``canonical_term`` adds the Koszul sign of sorting
    the resulting trees.  Yields (tree_index, edge_path, result, coeff)
    with result either a canonical ForestTerm of sign +1 paired with a
    nonzero coeff, or None for contributions that vanish (degenerate
    contraction or equal odd trees in the result).
    """
    trees = F.trees
    edges = [(i, p) for i, T in enumerate(trees) for p in canonical_edge_order(T)]
    for k, (i, p) in enumerate(edges):
        cut = contract_components(trees[i], p)
        term = None
        if cut is not None:
            comps, sign = cut
            term = canonical_term(ForestTerm(trees[:i] + comps + trees[i + 1:],
                                             F.sign * sign * (-1) ** k))
        if term is None:
            yield i, p, None, Fraction(0)
        else:
            yield i, p, ForestTerm(term.trees, 1), Fraction(term.sign)


def contract(T: RDecoTree, e: tuple) -> Optional[ForestTerm]:
    """Contract one edge of a single tree.

    The sign is the parity of moving the contracted edge to the front of
    the canonical order and matching what remains against the canonical
    order of the result.  Returns None for the two kinds of vanishing
    result: degenerate contraction (single-edge tree) and equal odd-degree
    component trees.
    """
    order = canonical_edge_order(T)
    if e not in order:
        raise ValueError(f"invalid edge handle {e!r}")
    cut = contract_components(T, e)
    if cut is None:
        return None
    comps, sign = cut
    return canonical_term(ForestTerm(comps, sign * (-1) ** order.index(e)))


def d_term(F: ForestTerm) -> FormalSum:
    out = FormalSum()
    for _, _, result, coeff in d_contributions(F):
        if result is not None:
            out.add_term(result, coeff)
    return out


def d(S: FormalSum) -> FormalSum:
    """The forest differential: signed sum of one-edge contractions."""
    return S.bind(d_term)
