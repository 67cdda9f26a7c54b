"""Formal Q-linear combinations over hashable terms."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

_EXACT = (int, Fraction)  # coefficient types stored as given


class FormalSum:
    """Finitely supported map term -> int or Fraction, no zeros stored.
    ``add_term`` and ``scale`` alone decide a coefficient's type: they keep
    an int or a Fraction and turn any other number into its exact Fraction.

    The class is deliberately dumb about what a term is; canonicalization
    happens in the callers (forest and cycle modules) before insertion.
    """

    __slots__ = ("_terms",)

    def __init__(self, items: Iterable[Tuple[object, Fraction]] = ()):
        self._terms: dict = {}
        for t, c in items:
            self.add_term(t, c)

    def add_term(self, term, coeff) -> None:
        if type(coeff) not in _EXACT:
            coeff = Fraction(coeff)
        old = self._terms.get(term)
        c = coeff if old is None else old + coeff
        if c:
            self._terms[term] = c
        else:
            self._terms.pop(term, None)

    def terms(self):
        return list(self._terms.keys())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = self.copy()
        for t, c in other._terms.items():
            out.add_term(t, c)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        out = self.copy()
        for t, c in other._terms.items():
            out.add_term(t, -c)
        return out

    def scale(self, k) -> "FormalSum":
        if type(k) not in _EXACT:
            k = Fraction(k)
        out = FormalSum()
        if k:
            for t, c in self._terms.items():
                out._terms[t] = c * k
        return out

    def copy(self) -> "FormalSum":
        out = FormalSum()
        out._terms = dict(self._terms)
        return out

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        parts = [f"{c}*{t!r}" for t, c in self._terms.items()]
        return "FormalSum(" + " + ".join(parts) + ")"


def perm_parity(perm) -> int:
    """Sign of the permutation i -> perm[i]: each swap that puts an entry
    in its place flips it, and a cycle of length l takes l - 1 swaps."""
    p = list(perm)
    sign = 1
    for i in range(len(p)):
        while (j := p[i]) != i:
            p[i], p[j] = p[j], j
            sign = -sign
    return sign
