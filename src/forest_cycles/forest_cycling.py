"""The forest cycling map from R-deco forests to cycle sums.

Every internal vertex of a tree receives a fresh algebraic parameter,
numbered by depth-first order so output is reproducible.  Every edge
contributes the coordinate 1 - y_near/y_far, where near is the endpoint
closer to the root and y is the decoration (for external vertices, with
the unit contributing no factor) or the parameter (for internal ones).
The ratio orientation is fixed by the two classical displayed cycles
this map must reproduce: the weight-two cycle [1-1/u, 1-u/x1, 1-u/x2]
and its weight-three analogue.
"""

from __future__ import annotations

from .cycle_algebra import Coordinate, CycleTerm, FormalSum, ONE, add_cycle, monomial
from .forest_algebra import Leaf, RDecoTree, canonical_edge_order
from .symbols import constant, parameter


def _vertex_values(tree: RDecoTree, first_param: int):
    """Monomial value of every tree position, parameters in preorder."""
    values = {}
    counter = [first_param]

    def rec(node, path):
        if isinstance(node, Leaf):
            values[path] = (ONE if node.deco.is_unit
                            else monomial({constant(node.deco.name): 1}))
            return
        values[path] = monomial({parameter(counter[0]): 1})
        counter[0] += 1
        for j, ch in enumerate(node.children):
            rec(ch, path + (j,))

    rec(tree.top, ())
    root_value = (ONE if tree.root_deco.is_unit
                  else monomial({constant(tree.root_deco.name): 1}))
    return root_value, values, counter[0]


def _tree_coords(tree: RDecoTree, first_param: int):
    root_value, values, next_param = _vertex_values(tree, first_param)
    coords = []
    for path in canonical_edge_order(tree):
        near = root_value if path == () else values[path[:-1]]
        far = values[path]
        coords.append(Coordinate(near * (far ** -1), True))
    return coords, next_param


def phi_tree(T: RDecoTree) -> CycleTerm:
    """Image of a single tree, coordinates in canonical edge order.

    The raw (unnormalized) term is returned so that the coordinate list
    reads exactly like the edge list of the tree; sums go through
    ``phi``, which canonicalizes.  Non-generic trees are mapped too; the
    admissibility guarantee is simply void for them.
    """
    coords, _ = _tree_coords(T, 1)
    return CycleTerm(tuple(coords))


def phi(S: FormalSum) -> FormalSum:
    """Linear extension to forest sums; trees of one forest term get
    disjoint parameter blocks, so the product of trees maps to the
    concatenation product of their images."""
    out = FormalSum()
    for F, c in S:
        coords = []
        next_param = 1
        for tree in F.trees:
            tc, next_param = _tree_coords(tree, next_param)
            coords.extend(tc)
        add_cycle(out, coords, c * F.sign)
    return out
