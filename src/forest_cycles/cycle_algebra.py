"""Cubical algebraic cycle terms with Laurent-monomial coordinates.

A term is an ordered list of coordinates on the algebraic n-cube.  Each
coordinate is either 1 - q (the generic shape) or the bare monomial q,
where q is a Laurent monomial in constant symbols, algebraic parameters
and topological variables.  The bare shape exists because the classical
weight-one cycle [t, 1-t, 1-a/t] and its boundary [a, 1-a] need it.

The boundary is the sum over i of (-1)^(i-1) times the face z_i = 0
minus the face z_i = infinity.  In this class each face is one
substitution for one parameter: the zero face of 1 - q solves q = 1 for
a parameter of exponent +-1, and every other face sends a parameter of
q to 0 or infinity.  One loop, ``_restricted``, substitutes the solved
parameter in the other coordinates of a zero face; a limit face is read
off the pivot index alone, one limit per parameter of q.  A coordinate
that lands on the removed point 1 empties the face or the limit,
whatever else happens there; one that becomes the constant 0 or
infinity is flagged (an admissibility violation, a class error for
``boundary``).

Terms are canonical: coordinates are sorted, with the permutation
parity exported as a sign, and equal coordinates kill the term.
Algebraic parameters are renamed to u1..uk by a label-invariant scheme,
so that two parametrizations of the same cycle compare equal.
Topological variables are never renamed; their index order is data.
``normalize`` collects each parameter's occurrences in one walk, colours
the parameters by one sort of them, and builds neighbour lists to refine
only a tie.  When every colour is its own, as in almost every term of
the chain map, the colour order is the renaming and the term is the
sorted renamed coordinates, each unchanged one reused.  Ties start an
uncapped individualization-refinement search: no term lacks a canonical form.

Each coordinate is read once per top-level call.  A reading
(``_reading``) splits a coordinate into its constants, its parameters
with their exponents and its topological variables, and anonymizes its
parameters into the shape that the colouring reads.  Only this module
makes a ``Readings`` table, filled on a miss: ``cycle_sum``, through
which every sum of raw coordinate lists is built, ``boundary``, an
``AdmissibilityWalk`` and a lone ``normalize`` or ``face_outcome`` call
each make one and drop it with the call or the walk; nothing is cached
at module level, so a repeated call computes again.  The faces of a term
share one reading of the term, whose pivot index maps each parameter to
the coordinates it enters: a zero face edits those positions only, in
the face's coordinate list, and hands the table on to ``normalize``.  A
lone face reads only its own coordinate and indexes only its parameters.

The values below a term are plain tuples underneath, so they are built,
hashed, compared and sorted in C.  A ``Sym`` is a tuple whose first
entry is its kind rank, which the hot loops test in place of the kind
name.  A ``Monomial`` is the tuple of its (symbol, exponent) pairs in
symbol order, so a product is one merge of two sorted runs and no
Python key function is called.  A ``Coordinate`` is the tuple (q, one_minus), so coordinates
sort by their exponent pairs and then by shape, which is the order of
the canonical form.  A ``FaceOutcome`` is the tuple (contributions,
flags).  ``normalize``, the faces and ``phi`` build them with
``tuple.__new__`` and no Python ``__init__``.  A ``CycleTerm`` is a
slotted class with read-only ``coords`` that computes its hash once, at
construction, so a term used as a dictionary key is hashed in constant
time however deep it is; it also keeps its parameter tuple, which
``normalize`` passes to the constructor.
"""

from __future__ import annotations

import math
from operator import attrgetter, eq, itemgetter, not_
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .formal import FormalSum, perm_parity
from .symbols import RANK_CONST, RANK_PARAM, RANK_TOP, Sym, parameter

INF = math.inf


class OutOfClassError(Exception):
    """Raised when an operation would leave the monomial coordinate class."""


_new = tuple.__new__  # a Monomial, a Coordinate or a FaceOutcome with no Python __init__
_first = itemgetter(0)


def _unsupported(self, other):
    """Stands in for the tuple concatenation and repetition that a
    monomial or a coordinate must not inherit."""
    raise TypeError(f"unsupported operand types: {type(self).__name__!r} "
                    f"and {type(other).__name__!r}")


class Monomial(tuple):
    """Finitely supported exponent vector: the tuple of its (symbol,
    exponent) pairs with nonzero exponents, in symbol order.

    Hash, equality and order are the tuple's and run in C.  The only
    arithmetic is the monomial one: ``*`` by a monomial is the product,
    and the sum and repetition that a tuple would offer raise TypeError.
    ``is_one`` is the emptiness test.
    """

    __slots__ = ()

    def __new__(cls, exps=()):
        return _new(cls, exps)

    def __getnewargs__(self):
        return (tuple(self),)

    exps = property(tuple)  # the pairs as a plain tuple
    is_one = property(not_)
    __add__ = __radd__ = __rmul__ = _unsupported

    def exp_of(self, sym: Sym) -> int:
        for s, e in self:
            if s == sym:
                return e
        return 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            _unsupported(self, other)
        if other.is_one:
            return self
        if self.is_one:
            return other
        return _product(list(self), other)

    def rename(self, mapping: Dict[Sym, Optional[Sym]]) -> "Monomial":
        """Rename symbols through ``monomial``: an unmapped symbol stays, a
        symbol mapped to None is dropped, and exponents that meet are added."""
        return monomial([(t, e) for s, e in self if (t := mapping.get(s, s)) is not None])

    def __repr__(self) -> str:
        return f"Monomial(exps={tuple(self)!r})"

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        return "*".join(f"{s}^{e}" if e != 1 else str(s) for s, e in self)


def _product(pairs: list, factor) -> Monomial:
    """The monomial of the sorted pair run ``pairs`` times the sorted pair
    run ``factor``; ``pairs`` is consumed.

    One sort merges the two runs in C.  A symbol of both runs comes out
    as two adjacent pairs, summed or dropped; when no symbol is shared,
    which one set of the symbols tells, the merged run is the product.
    """
    pairs.extend(factor)
    pairs.sort()
    if len(set(map(_first, pairs))) == len(pairs):
        return _new(Monomial, pairs)
    out = []
    last = None
    for p in pairs:
        s = p[0]
        if s == last:
            e = out.pop()[1] + p[1]
            if e:
                out.append((s, e))
        else:
            out.append(p)
            last = s
    return _new(Monomial, out)


def monomial(exps) -> Monomial:
    if isinstance(exps, Monomial):
        return exps
    items = exps.items() if isinstance(exps, dict) else exps
    acc: Dict[Sym, int] = {}
    for s, e in items:
        if e:
            acc[s] = acc.get(s, 0) + e
            if not acc[s]:
                del acc[s]
    return _new(Monomial, sorted(acc.items()))


ONE = Monomial()


class Coordinate(tuple):
    """The function 1 - q when one_minus is set, else q itself: the tuple
    (q, one_minus).  It hashes, compares and sorts in C, by the exponent
    pairs of q first and then with 1 - q after q."""

    __slots__ = ()

    def __new__(cls, q: Monomial, one_minus: bool = True):
        return _new(cls, (q, one_minus))

    def __getnewargs__(self):
        return tuple(self)

    q = property(itemgetter(0))
    one_minus = property(itemgetter(1))
    __add__ = __radd__ = __mul__ = __rmul__ = _unsupported

    def rename(self, mapping) -> "Coordinate":
        return _new(Coordinate, (self[0].rename(mapping), self[1]))

    def __repr__(self) -> str:
        return f"Coordinate(q={self[0]!r}, one_minus={self[1]!r})"

    def __str__(self) -> str:
        return f"1-{self[0]}" if self[1] else str(self[0])


class CycleTerm:
    """An ordered tuple of coordinates, read-only as ``coords``.

    ``params``, when given, is the sorted tuple of the parameters of
    ``coords``, which ``normalize`` knows; otherwise the first read of
    ``params`` scans for it.  Equality is that of ``coords``, whose hash
    is computed once here.
    """

    __slots__ = ("_coords", "_hash", "_params")

    def __init__(self, coords: Tuple[Coordinate, ...], params: Optional[tuple] = None):
        self._coords = coords
        self._hash = hash(coords)
        self._params = params

    coords = property(attrgetter("_coords"))

    def __eq__(self, other):
        if other.__class__ is not CycleTerm:
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CycleTerm, (self._coords,))

    def __repr__(self) -> str:
        return f"CycleTerm(coords={self._coords!r})"

    @property
    def n(self) -> int:
        return len(self.coords)

    def _syms_of_rank(self, rank: int) -> tuple:
        found = {s for c in self.coords for s, _ in c[0] if s[0] == rank}
        return tuple(sorted(found))

    @property
    def params(self) -> tuple:
        if self._params is None:
            self._params = self._syms_of_rank(RANK_PARAM)
        return self._params

    @property
    def top_syms(self) -> tuple:
        return self._syms_of_rank(RANK_TOP)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


EMPTY_TERM = CycleTerm(())


def dimension(t: CycleTerm) -> int:
    """Number of distinct algebraic parameters."""
    return len(t.params)


# ---------------------------------------------------------------------------
# canonical form

def _refine(colour, n, neighbours, moved):
    """The fixed point of colour refinement from the colouring ``colour``
    of the parameters with ``n`` colours, and its number of colours.

    A colour is the start of its cell in the sorted colouring.  Parameter
    i sits in the coordinates whose parameter positions are
    ``neighbours[i]``.  A round splits each cell by the sorted colours of
    the other parameters per coordinate, in that order, until none splits
    (1-dimensional Weisfeiler-Leman); no position is read, so the result
    is label-invariant.  ``moved`` is every parameter of a fresh colouring,
    or the one just put first in a cell of a fixed point; a round moves
    every part but the largest of each cell that splits.  The rest are
    only renumbered in order, so the members of a cell that share no
    coordinate with a moved parameter keep one signature, and one is
    signed for all.  (In a fresh colouring they share none, and their
    colour counts their coordinates.)
    """
    def signature(i):
        return tuple(sorted(tuple(sorted(colour[j] for j in ids if j != i))
                            for ids in neighbours[i]))

    k = len(colour)
    while n < k and moved:
        near = {i for j in moved for ids in neighbours[j] for i in ids if i != j}
        cells = {colour[i]: [] for i in near}
        for i, c in enumerate(colour):
            if c in cells:
                cells[c].append(i)
        new, moved = colour[:], []
        for c, members in cells.items():
            if len(members) < 2:
                continue
            far = [i for i in members if i not in near]
            signed = {signature(far[0]): far} if far else {}
            for i in near.intersection(members):
                signed.setdefault(signature(i), []).append(i)
            parts = [signed[sig] for sig in sorted(signed)]
            largest = max(parts, key=len)
            moved += [i for part in parts if part is not largest for i in part]
            for part in parts:
                for i in part:
                    new[i] = c
                c += len(part)
            n += len(parts) - 1
        colour = new
    return colour, n


_PARAMS = [None]  # _PARAMS[j] is parameter(j), grown on demand


def _parameters(k: int) -> list:
    while len(_PARAMS) <= k:
        _PARAMS.append(parameter(len(_PARAMS)))
    return _PARAMS


def _keys(parts, name) -> list:
    """Each coordinate renamed by giving parameter position i the name
    ``name[i]``: itself when that leaves it as it was, else built anew."""
    keys = []
    for c, head, pe, tail in parts:
        if pe:
            q = head + (((name[pe[0][0]], pe[0][1]),) if len(pe) == 1  # no sort
                        else tuple(sorted([(name[i], e) for i, e in pe]))) + tail
            if q != c[0]:
                c = _new(Coordinate, (_new(Monomial, q), c[1]))
        keys.append(c)
    return keys


def _least_relabeling(parts, colour, n, neighbours, names):
    """(keys, order, sign) of the least sorted key list over the leaves of
    the individualization-refinement tree below the fixed point ``colour``
    of ``n`` colours, or None when the term has an odd automorphism.

    A child puts one parameter first in the least cell of two or more and
    refines; a leaf is discrete and names the parameter of colour c
    u_{c+1}.  No step reads a position, so a renamed term has the same
    leaf key lists, and the least is canonical (McKay and Piperno,
    "Practical graph isomorphism, II", 2014).  The walk is depth first.  A
    leaf with the least list again differs from the first that had it by
    an automorphism g, the colour-preserving map between them; g is
    recorded, and the term is zero if the two leaves sort their
    coordinates with different parities.  Two cuts lose neither the least
    list nor an odd automorphism:
    - Jump.  g fixes the parameters the two paths share and maps the
      earlier path's next one to this one's, so the rest of this subtree
      at that depth is the image under g of a finished one.
    - Orbits.  The recorded automorphisms that fix the path fix the node
      and permute its children, so a child in the orbit of a tried sibling
      under them is skipped.
    Every leaf with the least list is thus the image of a visited one
    under recorded automorphisms, all even unless the search has returned,
    so an odd automorphism would map the first least leaf to the image of
    a visited leaf of the other parity, which was compared with the first.
    """
    k = len(colour)
    nodes, path, autos, best = [(colour, n, [])], [], [], None  # a node keeps its tried children
    while True:
        colour, n, tried = nodes[-1]
        if n == k:
            keys = _keys(parts, [names[c + 1] for c in colour])
            order = sorted(range(len(keys)), key=keys.__getitem__)
            leaf = ([keys[i] for i in order], perm_parity(order), path[:], colour, keys, order)
            if best is None or leaf[0] < best[0]:
                best = leaf
            elif leaf[0] == best[0]:
                if leaf[1] != best[1]:
                    return None
                at = {c: i for i, c in enumerate(colour)}
                g = [at[c] for c in best[3]]  # best's parameter of each colour to this leaf's
                autos.append((g, {i for i, j in enumerate(g) if i == j}))
                d = next(d for d, p in enumerate(path) if p != best[2][d])
                del path[d + 1:], nodes[d + 2:]
        else:
            ranked = sorted(colour)
            least = next(c for c, d in zip(ranked, ranked[1:]) if c == d)
            cell = [i for i, c in enumerate(colour) if c == least]
            gens = [g for g, fixed in autos if fixed.issuperset(path)]
            skip = set(tried)
            while grown := {g[i] for g in gens for i in skip} - skip:
                skip |= grown  # up to the orbit of the tried siblings
            v = next((i for i in cell if i not in skip), None)
            if v is not None:
                path.append(v)
                child = colour[:]
                for i in cell:
                    child[i] += i != v
                nodes.append((*_refine(child, n + 1, neighbours, [v]), []))
                continue
        if not path:
            return best[4], best[5], best[1]
        nodes.pop()
        nodes[-1][2].append(path.pop())


class Readings(dict):
    """The readings of the coordinates met in one top-level call, keyed by
    coordinate and filled on a miss.  A table lives as long as the call
    that made it, never longer."""

    __slots__ = ()

    def __missing__(self, c):
        r = self[c] = _reading(c)
        return r


def _reading(c) -> Optional[tuple]:
    """What ``normalize`` reads of the coordinate c: (head, params, tail),
    or None when c has no parameter.

    The symbol order keeps the constants, the parameters and the
    topological variables of q in three contiguous runs: ``head`` is the
    first and ``tail`` the third.  ``params`` holds a (symbol, exponent,
    occurrence) triple for each parameter, where the occurrence, which
    the colouring reads, is (shape, exponent) and the shape is c with its
    parameters anonymized.
    """
    exps, om = c
    ranks = [s[0] for s, _ in exps]
    start = ranks.count(RANK_CONST)
    end = start + ranks.count(RANK_PARAM)
    if start == end:
        return None
    shape = (om, tuple(sorted([(s[0], "" if s[0] == RANK_PARAM else s[2], e)
                               for s, e in exps])))
    params = tuple([(s, e, (shape, e)) for s, e in exps[start:end]])
    return exps[:start], params, exps[end:]


def normalize(raw_coords: Iterable[Coordinate], readings: Optional[Readings] = None):
    """Canonical (CycleTerm, sign) of a raw coordinate list, or None.

    None means the term is zero.  That happens when a coordinate is the
    constant monomial 1 (the coordinate function either vanishes
    identically or sits at the removed point 1 of the cube) and when two
    coordinates coincide; it also happens when the term has an odd
    automorphism, a relabeling of its parameters that permutes its
    coordinates oddly (an orientation-reversing self-symmetry).

    Each coordinate is read once per top-level call: ``readings`` is the
    caller's table, and a fresh one serves a lone call.  One walk collects
    each parameter's occurrences, one sort by them colours the parameters,
    and only a tie builds the neighbour lists that refinement reads; a
    term with no parameter is not coloured at all.  A key is the renamed
    coordinate, the input object if renaming leaves it unchanged, so the
    winning keys are the canonical coordinates.  When every colour is its
    own cell, as in almost every term of the chain map, the colour order
    is the renaming, and a symmetry, which fixes every colour, cannot make
    the term zero.  Ties go to ``_least_relabeling``.
    """
    coords = tuple(raw_coords)
    if readings is None:
        readings = Readings()
    index: Dict[Sym, int] = {}  # parameter -> position, by first appearance
    occurrences, parts = [], []
    for c in coords:
        r = readings[c]
        if r is None:
            if not c[0]:
                return None  # the unit monomial
            parts.append((c, None, None, None))
            continue
        head, params, tail = r
        pe = []
        for s, e, occurrence in params:
            i = index.get(s)
            if i is None:
                i = index[s] = len(occurrences)
                occurrences.append([])
            occurrences[i].append(occurrence)
            pe.append((i, e))
        parts.append((c, head, pe, tail))

    k = len(occurrences)
    names = _parameters(k)
    colour, n_colours = (), 0  # a term with no parameter has nothing to colour
    if k:
        for occ in occurrences:
            occ.sort()
        # a colour is the start of its cell in the parameters sorted by occurrences
        colour, last = [0] * k, None
        for pos, i in enumerate(sorted(range(k), key=occurrences.__getitem__)):
            if occurrences[i] != last:
                start, last = pos, occurrences[i]
                n_colours += 1
            colour[i] = start
        if n_colours < k:
            neighbours = [[] for _ in range(k)]  # i -> the position lists of its coordinates
            for part in parts:
                ids = [i for i, _ in part[2] or ()]
                for i in ids:
                    neighbours[i].append(ids)
            colour, n_colours = _refine(colour, n_colours, neighbours, range(k))
    if n_colours == k:
        keys = _keys(parts, [names[col + 1] for col in colour])
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sign = perm_parity(order)
    else:
        # equal coordinates make the term zero under any renaming; one set
        # finds them before the search walks its tree (a root over 32 copies
        # of (x x y) takes 1 ms with the set and 20 ms without it)
        if len(set(coords)) < len(coords):
            return None
        found = _least_relabeling(parts, colour, n_colours, neighbours, names)
        if found is None:
            return None
        keys, order, sign = found
    out = tuple(map(keys.__getitem__, order))
    # the renaming is a bijection, so equal coordinates, which make the
    # term zero, are equal keys next to each other
    if any(map(eq, out, out[1:])):
        return None
    # the parameters are now u1..uk, so the term need not scan for them
    return CycleTerm(out, tuple(names[1:k + 1])), sign


def cycle_sum(entries) -> FormalSum:
    """The canonical sum of raw (coordinate list, coefficient) entries,
    which share one readings table."""
    out = FormalSum()
    readings = Readings()
    for raw, coeff in entries:
        res = normalize(raw, readings=readings)
        if res is not None:
            out.add_term(res[0], coeff * res[1])
    return out


# ---------------------------------------------------------------------------
# faces

class FaceOutcome(NamedTuple):
    """One face computation before sign conventions: the tuple
    (contributions, flags), built with ``tuple.__new__``.

    contributions holds (CycleTerm, sign) pairs that survived; flags
    lists degeneracies in which a coordinate became a constant 0 or
    infinity on the face (the cycle then sits inside a deeper face,
    which is exactly an admissibility violation).  An outcome with no
    contributions and no flags is an empty intersection.
    """

    contributions: Tuple[Tuple[CycleTerm, int], ...] = ()
    flags: Tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.contributions and not self.flags


_EMPTY_OUTCOME = FaceOutcome()


def _where(coords, params) -> Dict[Sym, list]:
    """The pivot index of the parameters ``params``: each maps to the
    (position, exponent) pairs of the coordinates it enters, in ascending
    position."""
    where: Dict[Sym, list] = {s: [] for s in params}
    for j, c in enumerate(coords):
        for s, f in c[0]:
            hits = where.get(s)
            if hits is not None:
                hits.append((j, f))
    return where


def _read_term(t: CycleTerm, readings: Readings) -> tuple:
    """(readings, where) of a term, for all its faces: the caller's table
    and the pivot index of every parameter of t."""
    return readings, _where(t.coords, t.params)


def _restricted(coords, i, pivot, hits, image, readings) -> FaceOutcome:
    """The zero face on which the parameter ``pivot`` is solved for:
    coordinate i dropped and the others restricted.

    ``hits`` are the (position, exponent) pairs of the coordinates that
    ``pivot`` enters, in ascending position; no other coordinate changes.
    ``image`` is the sorted pairs of the monomial that ``pivot`` becomes,
    which one ``_product`` merges into the rest of q after raising it to
    the exponent.  A coordinate whose q becomes 1 ends the face: a bare
    one sits at the removed point 1 and empties it, which beats any flag,
    and a 1 - q one is the constant 0 and is flagged.
    """
    face, flags = list(coords), []
    del face[i]
    for j, f in hits:
        if j == i:
            continue
        c = coords[j]
        pairs = list(c[0])
        pairs.remove((pivot, f))
        q = _product(pairs, image if f == 1 else [(s, x * f) for s, x in image])
        if q:
            face[j - (j > i)] = _new(Coordinate, (q, c[1]))
        elif c[1]:
            flags.append(f"coordinate {j + 1} -> constant 0")
        else:
            return _EMPTY_OUTCOME  # the removed point 1
    if flags:
        return _new(FaceOutcome, ((), tuple(flags)))
    res = normalize(face, readings=readings)
    if res is None:
        return _EMPTY_OUTCOME
    return _new(FaceOutcome, ((res,), ()))


def face_outcome(t: CycleTerm, i: int, eps, *,
                 reading: Optional[tuple] = None) -> FaceOutcome:
    """Face i (1-based) at eps in {0, inf} of a single term.

    ``reading`` is the term's ``_read_term``, which a caller that takes
    several faces of one term builds once.  A lone call reads coordinate
    i and builds the pivot index of its parameters alone.

    The zero face of 1 - q goes to ``_restricted``.  Any other face is
    reached only through the limits u -> 0 or inf of the parameters u of
    q that drive q there, and each limit is read off ``where[u]``: a
    1 - q coordinate whose q goes to 0 sits at the removed point 1 and
    empties the limit, whatever else happens; otherwise every other
    coordinate that u enters is flagged at 0 or infinity; and when u
    enters no other coordinate, the limit is t with coordinate i dropped,
    normalized once and counted once per such u.
    """
    coords = t.coords
    if not 1 <= i <= len(coords):
        raise ValueError(f"face index {i} out of range")
    at_zero = eps == 0
    if not at_zero and eps != INF:
        raise ValueError(f"face at eps = {eps!r}: eps must be 0 or inf")
    coord = coords[i - 1]
    q, one_minus = coord
    readings, where = reading or (Readings(), None)
    row = readings[coord]
    if row is None:
        # no parameter moves q, whose topological variables are its last
        # run: the face is empty unless it leaves the class
        if not at_zero:
            if q and q[-1][0][0] == RANK_TOP and any(e < 0 for s, e in q if s[0] == RANK_TOP):
                raise OutOfClassError(
                    f"coordinate {i} would need a topological variable at 0 to blow up")
        elif one_minus and len(q) > 1 and q[-2][0][0] == RANK_TOP:
            raise OutOfClassError(f"zero-face of {coord} relates two topological variables")
        # q = 1 with constants alone, or one topological variable against
        # generic constants: no solution on the cube resp. inside [0,1]
        return _EMPTY_OUTCOME
    params = row[1]
    if where is None:
        where = _where(coords, [s for s, _, _ in params])

    if one_minus and at_zero:
        # solve q = 1 for its least parameter p of exponent e = +-1: p = r^-e
        # for r the rest of q
        for pivot, e, _ in params:
            if e == 1 or e == -1:
                break
        else:
            raise OutOfClassError(
                f"zero-face of {coord}: no parameter enters with exponent +-1")
        return _restricted(coords, i - 1, pivot, where[pivot],
                           [(s, -e * x) for s, x in q if s != pivot], readings)

    # 1 - q at infinity, or a bare q at 0 or infinity
    want_infinity = one_minus or not at_zero
    lone, flags = 0, []
    for sym, e, _ in params:
        up = (e > 0) == want_infinity  # sym^f goes to infinity for f > 0
        hits = where[sym]
        for j, f in hits:  # coordinate i itself never lands on 1 here
            if (f > 0) != up and coords[j][1]:
                break  # 1 - q with q -> 0: the removed point 1
        else:
            if len(hits) > 1:
                flags += [f"coordinate {j + 1} -> constant {'infinity' if (f > 0) == up else 0}"
                          for j, f in hits if j != i - 1]
            else:
                lone += 1
    res = normalize(coords[:i - 1] + coords[i:], readings=readings) if lone else None
    if res is None and not flags:
        return _EMPTY_OUTCOME
    return _new(FaceOutcome, ((res,) * lone if res else (), tuple(flags)))


def _add_face(out: FormalSum, t: CycleTerm, i: int, eps, sign: int,
              reading: Optional[tuple] = None) -> None:
    """Add sign times face i at eps of t to ``out``; a degenerate-constant
    outcome is a class error."""
    contributions, flags = face_outcome(t, i, eps, reading=reading)
    if flags:
        raise OutOfClassError("; ".join(flags))
    for term, s in contributions:
        out.add_term(term, sign * s)


def face(t: CycleTerm, i: int, eps) -> FormalSum:
    """Public face map; degenerate-constant outcomes are class errors."""
    out = FormalSum()
    _add_face(out, t, i, eps, 1)
    return out


def boundary(S: FormalSum) -> FormalSum:
    """The cycle differential: alternating sum of zero- and infinity-faces."""
    out = FormalSum()
    readings = Readings()
    for t, c in S:
        reading = _read_term(t, readings)
        for i in range(1, t.n + 1):
            sign = c if i % 2 == 1 else -c
            _add_face(out, t, i, 0, sign, reading)
            _add_face(out, t, i, INF, -sign, reading)
    return out


# ---------------------------------------------------------------------------
# product

def _alpha_convert(term: CycleTerm, start: int) -> tuple:
    """The coordinates of term with its parameters renamed from u_start on."""
    names = _parameters(start + len(term.params))
    mapping = {p: names[start + k] for k, p in enumerate(term.params)}
    return tuple(c.rename(mapping) for c in term.coords)


def concat(A: FormalSum, B: FormalSum) -> FormalSum:
    """Coordinate concatenation followed by renormalization.

    Canonically stored terms reuse the names u1, u2, ...; the second
    factor is renamed to fresh parameters first, which is the meaning of
    the fresh-parameter discipline under canonical storage.
    """
    return cycle_sum((ta.coords + _alpha_convert(tb, len(ta.params) + 1), ca * cb)
                     for ta, ca in A for tb, cb in B)


def unit_sum() -> FormalSum:
    return FormalSum([(EMPTY_TERM, 1)])


# ---------------------------------------------------------------------------
# admissibility

class AdmissibilityReport(NamedTuple):
    admissible: bool
    certificate: tuple = ()  # chain of (i, eps, detail) leading to a violation
    faces_checked: int = 0


class AdmissibilityWalk:
    """A walk over face chains that any number of terms may share.

    Each nonempty face must eliminate exactly one algebraic parameter and
    never pin a coordinate at a constant 0 or infinity; the same is then
    required of every face of the face.  ``memo`` maps each term walked
    to its own chain, which depends on that term alone, so the terms of a
    sum, whose faces repeat, share the memo and one readings table;
    ``faces`` counts the faces computed.
    """

    __slots__ = ("memo", "faces", "readings")

    def __init__(self):
        self.memo: Dict[CycleTerm, Optional[tuple]] = {}
        self.faces = 0
        self.readings = Readings()

    def violation(self, term: CycleTerm) -> Optional[tuple]:
        """The first violating face chain below ``term``, or None."""
        if term not in self.memo:
            # faces strictly shrink n, so the walk below never meets term
            self.memo[term] = self._first_violation(term)
        return self.memo[term]

    def _first_violation(self, term: CycleTerm) -> Optional[tuple]:
        reading = _read_term(term, self.readings)
        dim = dimension(term)
        for i in range(1, term.n + 1):
            for eps in (0, INF):
                self.faces += 1
                contributions, flags = face_outcome(term, i, eps, reading=reading)
                if flags:
                    return ((i, eps, "; ".join(flags)),)
                for sub, _ in contributions:
                    if dimension(sub) != dim - 1:
                        return ((i, eps,
                                 f"face eliminates {dim - dimension(sub)} parameters"),)
                    deeper = self.violation(sub)
                    if deeper is not None:
                        return ((i, eps, "face chain"),) + deeper
        return None


def is_admissible(t: CycleTerm) -> AdmissibilityReport:
    """Recursive proper-intersection check over all face chains, with a
    walk of its own; the certificate is the first violating face chain
    found (see ``AdmissibilityWalk``)."""
    walk = AdmissibilityWalk()
    chain = walk.violation(t)
    return AdmissibilityReport(admissible=(chain is None),
                               certificate=chain or (),
                               faces_checked=walk.faces)
