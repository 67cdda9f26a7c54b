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

The tree types hash once, at construction, from the cached hashes of
their parts, and every node carries the edge count of its subtree, so
dictionary lookups and edge counts never walk a tree.  Sorting walks
two trees only when they tie on edge count and root decoration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple, Union

from .formal import FormalSum, sort_with_parity
from .symbols import DecoSymbol


@dataclass(frozen=True, slots=True)
class Leaf:
    deco: DecoSymbol
    _hash: int = field(init=False, repr=False, compare=False)
    _edges: ClassVar[int] = 1  # the edge above the leaf

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.deco))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Leaf, (self.deco,))

    def __lt__(self, other) -> bool:
        # the shape order: a leaf by its decoration, before every node
        if type(other) is Leaf:
            return self.deco.sort_key() < other.deco.sort_key()
        return True


@dataclass(frozen=True, slots=True)
class Node:
    children: Tuple["TreeNode", ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _edges: int = field(init=False, repr=False, compare=False)  # the edge above and all below

    def __post_init__(self):
        # valency >= 3: one edge up, at least two down
        if len(self.children) < 2:
            raise ValueError("internal vertex needs at least 2 children")
        edges = 1
        for ch in self.children:
            edges += ch._edges
        object.__setattr__(self, "_hash", hash(self.children))
        object.__setattr__(self, "_edges", edges)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Node, (self.children,))

    def __lt__(self, other) -> bool:
        # the shape order: nodes by their children, lexicographically
        return type(other) is Node and self.children < other.children


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True, slots=True)
class RDecoTree:
    """Planted plane tree; ``top`` hangs below the root edge."""

    root_deco: DecoSymbol
    top: TreeNode
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.root_deco, self.top)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (RDecoTree, (self.root_deco, self.top))


@dataclass(frozen=True, slots=True)
class ForestTerm:
    """Ordered list of trees with a sign (+1 or -1) relative to canonical
    orientation."""

    trees: Tuple[RDecoTree, ...]
    sign: int = 1
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.trees, self.sign)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ForestTerm, (self.trees, self.sign))


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
    return tree.top._edges


def _edge_index(tree: RDecoTree, path: tuple) -> int:
    """Position of the edge ``path`` in the canonical edge order: each step
    down passes the edge taken and every edge of the earlier siblings."""
    k, node = 0, tree.top
    for j in path:
        k += 1
        for ch in node.children[:j]:
            k += ch._edges
        node = node.children[j]
    return k


def external_decorations(tree: RDecoTree) -> list:
    """Root decoration plus leaf decorations, in planar order."""
    out = [tree.root_deco]
    stack = [tree.top]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.deco)
        else:
            stack.extend(reversed(node.children))
    return out


def leaf_count(tree: RDecoTree) -> int:
    return len(external_decorations(tree)) - 1


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
    return is_generic(ForestTerm((T,)))


def is_generic(F: ForestTerm) -> bool:
    """Joint distinctness of all external decorations across the forest."""
    decos = []
    for t in F.trees:
        decos.extend(external_decorations(t))
    return len(decos) == len(set(decos))


# ---------------------------------------------------------------------------
# canonical form

def tree_sort_key(tree: RDecoTree) -> tuple:
    """Edge count, root decoration, then the shape order of the top node,
    which is walked only when two trees tie on the first two."""
    return (tree.top._edges, tree.root_deco.sort_key(), tree.top)


def _is_odd(tree: RDecoTree) -> bool:
    return tree.top._edges % 2 == 1


def _sorted_trees(trees: tuple):
    """The trees in canonical order and the Koszul sign of sorting them;
    None if two equal trees of odd degree make the term zero."""
    trees, ksign = sort_with_parity(trees, tree_sort_key, odd=_is_odd)
    for a, b in zip(trees, trees[1:]):
        if a == b and _is_odd(a):
            return None
    return trees, ksign


def canonical_term(F: ForestTerm) -> Optional[ForestTerm]:
    """Sorted-tree representative with the sign folded in; None if the
    term is zero (two equal trees of odd degree)."""
    cut = _sorted_trees(F.trees)
    if cut is None:
        return None
    trees, ksign = cut
    return ForestTerm(trees, F.sign * ksign)


def add_forest(out: FormalSum, F: ForestTerm, coeff) -> None:
    """Canonicalize and accumulate into a sum keyed by sign-free terms."""
    cut = _sorted_trees(F.trees)
    if cut is None:
        return
    trees, ksign = cut
    out.add_term(ForestTerm(trees), coeff * (F.sign * ksign))


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
    parent = node_at(tree, q)
    root = RDecoTree(tree.root_deco, _replace(tree.top, q, Leaf(lam)))
    branches = tuple(RDecoTree(lam, ch)
                     for k, ch in enumerate(parent.children) if k != j)
    # In ``tree`` the ``below`` branch edges come right after the edge q,
    # before the ``after`` edges that follow the subtree of q; listing the
    # root component first moves the branch edges past those.
    after = edge_count(tree) - parent._edges - _edge_index(tree, q)
    below = parent._edges - 1 - far._edges
    return (root,) + branches, (-1) ** (after * below)


def d_contributions(F: ForestTerm):
    """Per-edge contraction contributions of a forest term.

    The edges are taken in the orientation order of ``F``: its trees as
    listed, each in canonical edge order.  Contracting the k-th edge
    carries (-1)^k, and ``canonical_term`` adds the Koszul sign of sorting
    the resulting trees.  Yields (tree_index, edge_path, result, coeff)
    with result either a canonical ForestTerm of sign +1 paired with the
    int coeff +1 or -1, or None paired with 0 for contributions that
    vanish (degenerate contraction or equal odd trees in the result).
    """
    trees = F.trees
    edge_sign = F.sign  # F.sign * (-1)^k at the k-th edge
    for i, T in enumerate(trees):
        for p in canonical_edge_order(T):
            cut = contract_components(T, p)
            term = None
            if cut is not None:
                comps, sign = cut
                term = _sorted_trees(trees[:i] + comps + trees[i + 1:])
            if term is None:
                yield i, p, None, 0
            else:
                result, ksign = term
                yield i, p, ForestTerm(result), edge_sign * sign * ksign
            edge_sign = -edge_sign


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
