"""Symbol types shared by the forest and cycle layers.

Two separate alphabets are in play.  Trees carry decorations on their
external vertices (``DecoSymbol``), while cycle coordinates are built
from multiplicative symbols (``Sym``) whose kind separates fixed
constants from algebraic parameters and topological simplex variables.
Both are plain tuples underneath, so the forest and cycle layers hash,
compare and sort symbols at native-tuple speed.  A symbol stores its
kind once, as its rank: the tuple's first entry and the kind's position
in ``KINDS``.
"""

from __future__ import annotations

import re
from operator import itemgetter

# the kinds by rank, a symbol's first entry; every kind test reads the rank
KINDS = KIND_CONST, KIND_PARAM, KIND_TOP = "const", "param", "top"
RANK_CONST, RANK_PARAM, RANK_TOP = 0, 1, 2
KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


class DecoSymbol(tuple):
    """Decoration attached to an external vertex of a planted tree.

    Exactly one decoration per session is the distinguished unit; it
    sorts before every other decoration.  A decoration is the tuple
    (0 for the unit else 1, name), so its hash, equality and order are
    the tuple's and run in C.
    """

    __slots__ = ()

    def __new__(cls, name: str, is_unit: bool = False):
        return tuple.__new__(cls, (0 if is_unit else 1, name))

    name = property(itemgetter(1))

    @property
    def is_unit(self) -> bool:
        return self[0] == 0

    def __getnewargs__(self):
        return (self.name, self.is_unit)

    def __repr__(self) -> str:
        return f"DecoSymbol(name={self.name!r}, is_unit={self.is_unit!r})"

    def __str__(self) -> str:
        return self.name


UNIT = DecoSymbol("1", is_unit=True)


def deco(name: str) -> DecoSymbol:
    """Decoration from a plain name; "1" maps to the unit."""
    return UNIT if name == "1" else DecoSymbol(name)


def standard_decorations(m: int):
    """The leaf decorations x1..xm."""
    return tuple(DecoSymbol(f"x{i}") for i in range(1, m + 1))


class Sym(tuple):
    """Multiplicative symbol appearing in cycle coordinates.

    kind "const" marks a fixed argument and kind "param" an algebraic
    cycle parameter, canonically named u1, u2, ...  kind "top" marks a
    topological simplex variable (s1, s2, ...); there the index order is
    semantic and never renamed.

    A symbol is the tuple (rank, index, name), the rank standing for the
    kind as its position in ``KINDS``.  Its hash, equality and order are
    the tuple's, so they run in C; the order is the symbol order
    (constants, parameters, topological variables, each by index, then
    name).
    """

    __slots__ = ()

    def __new__(cls, kind: str, name: str, index: int = 0):
        return tuple.__new__(cls, (KIND_RANK[kind], index, name))

    index = property(itemgetter(1))
    name = property(itemgetter(2))

    @property
    def kind(self) -> str:
        return KINDS[self[0]]

    def __getnewargs__(self):
        return (self.kind, self.name, self.index)

    def __repr__(self) -> str:
        return f"Sym(kind={self.kind!r}, name={self.name!r}, index={self.index!r})"

    def __str__(self) -> str:
        return self.name


def constant(name: str) -> Sym:
    return Sym(KIND_CONST, name)


def parameter(i: int) -> Sym:
    return Sym(KIND_PARAM, f"u{i}", i)


def topological(i: int) -> Sym:
    return Sym(KIND_TOP, f"s{i}", i)


_VARIABLE_NAME = re.compile(r"[us][1-9][0-9]*")  # how parameter and topological write a name


def sym_from_name(name: str) -> Sym:
    """Infer the kind from the u<k>/s<k> naming convention (JSON input).

    Any other name is a constant, except one that reads as u or s and
    digits but is not how a variable is written ("u07", "s0"), which is
    refused."""
    if _VARIABLE_NAME.fullmatch(name):
        i = int(name[1:])
        return parameter(i) if name[0] == "u" else topological(i)
    if name[:1] in ("u", "s") and name[1:].isdigit():
        raise ValueError(f"symbol {name!r} is not a variable name u<k> or s<k>, k from 1")
    return constant(name)
