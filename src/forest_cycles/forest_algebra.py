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
``_sorted_trees`` then adds the Koszul sign of sorting those trees, so
the product and the differential signs come out of one mechanism.

Every tree type is a plain tuple underneath, laid out so that the
tuple order is the canonical tree order: a tree is (edge count, root
decoration, top), a leaf (1, decoration) and a node (2, *children,
(0, edges, depth)).  Hash, equality and order therefore run in C, with
one level of C recursion per tree level, and every node carries the
edge count and depth of its subtree, so neither is ever walked.  No
tree is deeper than ``MAX_TREE_DEPTH`` internal levels, which keeps
every comparison inside the recursion limit.  ``flatten``, with a stack
of its own, is the one walk of a tree: the edge order, and so the
contraction signs and the coordinates of ``phi``, all come from it.
``edge_walk`` reads it as edges, each with the vertices above it; the
differential takes from that one walk the edge order, the vertices a
contraction rebuilds and the position that fixes a leaf edge's sign.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Tuple, Union

from .formal import FormalSum
from .symbols import DecoSymbol

# internal vertex levels a tree may have: about what `json` decodes from
# a tree file (two containers a level), and far inside the recursion limit
MAX_TREE_DEPTH = 500


class Leaf(tuple):
    """A leaf, (1, decoration): leaves sort by decoration, before every node."""

    __slots__ = ()

    def __new__(cls, deco: DecoSymbol):
        return tuple.__new__(cls, (1, deco))

    deco = property(itemgetter(1))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self) -> str:
        return f"Leaf(deco={self[1]!r})"


class Node(tuple):
    """An internal vertex, (2, *children, (0, edges, depth)).

    Nodes sort by their children, lexicographically: the closing entry
    sorts below any child, so a node whose children are a prefix of
    another's comes first.  ``edges`` counts the edge above the vertex
    and all below it, ``depth`` the internal levels from this one down;
    both follow from the children, so they never decide a comparison.
    """

    __slots__ = ()

    def __new__(cls, children: tuple):
        # valency >= 3: one edge up, at least two down
        if len(children) < 2:
            raise ValueError("internal vertex needs at least 2 children")
        edges, depth = 1, 0
        for ch in children:
            if type(ch) is Node:
                _, e, h = ch[-1]
                edges += e
                if h > depth:
                    depth = h
            else:
                edges += 1
        if depth >= MAX_TREE_DEPTH:
            raise ValueError(f"tree nested too deeply, over {MAX_TREE_DEPTH} internal levels")
        return tuple.__new__(cls, (2, *children, (0, edges, depth + 1)))

    children = property(itemgetter(slice(1, -1)))

    def __getnewargs__(self):
        return (self[1:-1],)

    def __repr__(self) -> str:
        out = []
        for x in flatten(self):
            if type(x) is tuple:  # a closing entry takes its last child's ", "
                out[-1:] = "))", ", "
            else:
                out += ("Node(children=(",) if type(x) is int else (repr(x), ", ")
        return "".join(out[:-1])


TreeNode = Union[Leaf, Node]


def _edges(node: TreeNode) -> int:
    """The edge above ``node`` and every edge below it."""
    return node[-1][1] if type(node) is Node else 1


class RDecoTree(tuple):
    """Planted plane tree, (edge count, root decoration, top); ``top``
    hangs below the root edge.  Trees sort by edge count, then root
    decoration, then the shape order of the top."""

    __slots__ = ()

    def __new__(cls, root_deco: DecoSymbol, top: TreeNode):
        return tuple.__new__(cls, (_edges(top), root_deco, top))

    root_deco = property(itemgetter(1))
    top = property(itemgetter(2))

    def __getnewargs__(self):
        return (self[1], self[2])

    def __repr__(self) -> str:
        return f"RDecoTree(root_deco={self[1]!r}, top={self[2]!r})"


class ForestTerm(tuple):
    """Ordered list of trees with a sign (+1 or -1) relative to canonical
    orientation, as the tuple (trees, sign)."""

    __slots__ = ()

    def __new__(cls, trees: Tuple[RDecoTree, ...], sign: int = 1):
        return tuple.__new__(cls, (trees, sign))

    trees = property(itemgetter(0))
    sign = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"ForestTerm(trees={self[0]!r}, sign={self[1]!r})"


# ---------------------------------------------------------------------------
# edges and traversal

def flatten(node: TreeNode):
    """The node tuple flattened, in preorder with each node's end marked:
    a leaf yields itself, a node yields 2, then the entries of its
    children, then its closing entry (0, edges, depth).  Each leaf and
    each 2 is the far vertex of one edge, in canonical edge order."""
    stack = [iter((node,))]
    while stack:
        for x in stack[-1]:
            if type(x) is Node:  # its own entries: 2, the children, the closing
                stack.append(iter(x))
                break
            yield x
        else:
            stack.pop()


def edge_walk(tree: RDecoTree):
    """Each edge in canonical edge order, as (path, above): the path of
    its far vertex, () for the root edge and p + (j,) from the node at p
    to its j-th child, and the internal vertices along that path above
    the far vertex, the top first."""
    top = tree[2]
    yield (), ()
    entries = flatten(top)
    next(entries)  # the top vertex, the far end of the root edge
    nodes, here = [top], [-1]  # here: the path of the vertex last listed
    for x in entries:
        if type(x) is tuple:  # a closing entry: back to its node
            nodes.pop()
            here.pop()
        else:
            here[-1] += 1
            yield tuple(here), tuple(nodes)
            if type(x) is int:  # a node: its first child is next
                nodes.append(nodes[-1][here[-1] + 1])
                here.append(-1)


def node_at(tree: RDecoTree, path: tuple) -> TreeNode:
    """The far vertex of the edge ``path``; a ValueError if there is none."""
    node = tree[2]
    for j in path:
        if type(node) is not Node or not 0 <= j < len(node) - 2:
            raise ValueError(f"invalid edge handle {path!r}")
        node = node[j + 1]
    return node


def edge_count(tree: RDecoTree) -> int:
    return tree[0]


def external_decorations(tree: RDecoTree) -> list:
    """Root decoration plus leaf decorations, in planar order."""
    return [tree[1]] + [x[1] for x in flatten(tree[2]) if type(x) is Leaf]


def grade(F: ForestTerm) -> Tuple[int, int]:
    """(n, p) = (total edges, total leaves)."""
    return (sum(edge_count(t) for t in F.trees),
            sum(len(external_decorations(t)) - 1 for t in F.trees))


def is_generic(F: ForestTerm) -> bool:
    """Joint distinctness of all external decorations across the forest."""
    decos = [x for t in F.trees for x in external_decorations(t)]
    return len(decos) == len(set(decos))


# ---------------------------------------------------------------------------
# canonical form

def _sorted_trees(trees: tuple):
    """The trees in canonical order and the Koszul sign of sorting them,
    one sign for each pair of odd-degree trees out of order; None if two
    equal trees of odd degree make the term zero."""
    odd = [t for t in trees if t[0] % 2]
    sign = 1
    for i, a in enumerate(odd):
        for b in odd[i + 1:]:
            if not a < b:
                if a == b:
                    return None
                sign = -sign
    return tuple(sorted(trees)), sign


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


def tree_sum(T: RDecoTree) -> FormalSum:
    return forest_sum([(ForestTerm((T,)), 1)])


# ---------------------------------------------------------------------------
# product

def star(A: FormalSum, B: FormalSum) -> FormalSum:
    """Graded commutative product: disjoint union of forests.

    The orientation of the product term is the edges of A followed by the
    edges of B; canonicalization converts that to the sorted-tree
    orientation, which is where the Koszul signs come from.
    """
    return forest_sum((ForestTerm(Fa.trees + Fb.trees, Fa.sign * Fb.sign), ca * cb)
                      for Fa, ca in A for Fb, cb in B)


# ---------------------------------------------------------------------------
# contraction

def _rebuild(nodes: tuple, path: tuple, new: tuple) -> Node:
    """The top vertex with the vertex at the nonempty ``path`` replaced by
    the vertices ``new``, in its place in the planar order; ``nodes`` are
    the vertices along ``path`` above the replaced one."""
    for node, j in zip(reversed(nodes), reversed(path)):
        new = (Node(node[1:j + 1] + new + node[j + 2:-1]),)
    return new[0]


def contract_components(tree: RDecoTree, path: tuple, above: tuple, k: int):
    """Contract one edge, the k-th of ``tree``, with ``path`` and ``above``
    as ``edge_walk`` yields them; returns (components, sign), or None
    when the contraction is degenerate.

    The components are listed so that their canonical edge orders,
    concatenated, are the canonical edge order of ``tree`` without
    ``path``, up to one block swap whose parity is ``sign``.  The
    degenerate case is the contraction of the only edge of a single-edge
    tree, whose result has no edges left; its contribution to the
    differential is zero (the differential preserves the leaf count, and
    no nonempty forest has zero edges and one leaf).
    """
    root_deco = tree[1]
    if path == ():
        far = tree[2]
        if type(far) is Leaf:
            return None
        # root edge: the root and the top vertex merge into a new root
        # carrying the root decoration; every child is planted there.
        return tuple(RDecoTree(root_deco, ch) for ch in far[1:-1]), 1

    q, j = path[:-1], path[-1]
    parent = above[-1]
    far = parent[j + 1]
    if type(far) is Node:
        # internal edge: splice the far children into the parent list,
        # which keeps every other edge in depth-first order
        return (RDecoTree(root_deco, _rebuild(above, path, far[1:-1])),), 1

    # leaf edge: merge the leaf into its parent vertex, which then carries
    # the leaf decoration, and split there.  The component containing the
    # original root keeps it and sees the merged vertex as a leaf; every
    # other branch is planted at the merged vertex, which the root
    # component sees as the leaf ``far`` itself.
    lam = far[1]
    root = RDecoTree(root_deco, _rebuild(above[:-1], q, (far,)) if q else far)
    branches = tuple(RDecoTree(lam, ch) for ch in parent[1:j + 1] + parent[j + 2:-1])
    # In ``tree`` the ``below`` branch edges come right after the edge q,
    # before the ``after`` edges that follow the subtree of q; listing the
    # root component first moves the branch edges past those.  The edge
    # q sits k - 1 places before the leaf edge, less the edges of the
    # earlier siblings.
    edges = parent[-1][1]
    after = tree[0] - edges - (k - 1 - sum(map(_edges, parent[1:j + 1])))
    below = edges - 2  # the edge q and the leaf edge are not branch edges
    return (root,) + branches, (-1) ** (after * below)


def d_contributions(F: ForestTerm, internal_only: bool = False):
    """Per-edge contraction contributions of a forest term.

    The edges are taken in the orientation order of ``F``: its trees as
    listed, each in canonical edge order.  Contracting the k-th edge
    carries (-1)^k, and ``_sorted_trees`` adds the Koszul sign of sorting
    the resulting trees.  Yields (tree_index, edge_path, result, coeff)
    with result either a canonical ForestTerm of sign +1 paired with the
    int coeff +1 or -1, or None paired with 0 for contributions that
    vanish (degenerate contraction or equal odd trees in the result).
    With ``internal_only`` only the edges whose far vertex is a node are
    contracted and yielded, each with the sign it has in the full walk.
    """
    trees = F.trees
    edge_sign = -F.sign  # flipped before each edge: F.sign * (-1)^k at the k-th
    for i, T in enumerate(trees):
        for k, (p, above) in enumerate(edge_walk(T)):
            edge_sign = -edge_sign
            if internal_only and (not p or type(above[-1][p[-1] + 1]) is not Node):
                continue
            cut = contract_components(T, p, above, k)
            term = None
            if cut is not None:
                comps, sign = cut
                term = _sorted_trees(trees[:i] + comps + trees[i + 1:])
            if term is None:
                yield i, p, None, 0
            else:
                result, ksign = term
                yield i, p, ForestTerm(result), edge_sign * sign * ksign


def contract(T: RDecoTree, e: tuple) -> Optional[ForestTerm]:
    """Contract one edge of a single tree: the entry for ``e`` of
    ``d_contributions`` as a canonical term carrying its sign, or None
    where it vanishes (a single-edge tree, or equal odd-degree trees)."""
    for _, p, result, coeff in d_contributions(ForestTerm((T,))):
        if p == e:
            return None if result is None else ForestTerm(result[0], coeff)
    raise ValueError(f"invalid edge handle {e!r}")


def d(S: FormalSum) -> FormalSum:
    """The forest differential: signed sum of one-edge contractions."""
    out = FormalSum()
    for F, c in S:
        for _, _, result, coeff in d_contributions(F):
            if result is not None:
                out.add_term(result, c * coeff)
    return out
