"""Symbolic engine realizing multiple logarithms as algebraic cycles.

The package implements the differential graded algebra of decorated
rooted plane forests, the DGA of cubical algebraic cycle terms with
Laurent-monomial coordinates, the forest cycling map between them, the
trivalent tree sums attached to multiple logarithms, hybrid cycles with
a topological differential and their bounding identities, and a numeric
layer checking the resulting iterated-integral values.
"""

from .cycle_algebra import (Coordinate, CycleTerm, Monomial, OutOfClassError,
                            boundary, concat, dimension, face, is_admissible,
                            monomial, normalize)
from .forest_algebra import (ForestTerm, Leaf, Node, RDecoTree, contract, d,
                             grade, is_generic, star, tree_sum)
from .forest_cycling import phi, phi_tree
from .formal import FormalSum
from .hybrid import (D, delta, load_fixture, negligible_reason, topological_part,
                     verify_bounding)
from .numerics import (NumericContext, check_diffLi, eval_topological_cycle,
                       eval_topological_sum, multiple_log_series,
                       simplex_integral, x_from_z, z_from_x)
from .symbols import (DecoSymbol, Sym, UNIT, constant, deco, parameter,
                      standard_decorations, topological)
from .tau import (TauSpec, check_decomposable, check_internal_cancellation,
                  standard_spec, tau, tau_trees)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
