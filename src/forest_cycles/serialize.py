"""JSON and LaTeX emission for trees, forests and cycle sums.

Tree schema: {"root": "<deco>", "node": N} with N either
{"leaf": "<deco>"} or {"children": [N, ...]}.  Forest terms carry a
"sign" and a "trees" array; sum entries add a "coeff" string.  Cycle
coordinates are exponent maps {"<sym>": exp, ...}; symbol kinds are
inferred from the u<k>/s<k> naming convention.  Bare-monomial
coordinates are marked by their 1-based positions in a "plain" array.
The readers raise ValueError, and nothing else, on malformed input.
"""

from __future__ import annotations

import json
import re
import reprlib
from fractions import Fraction

from .cycle_algebra import Coordinate, CycleTerm, cycle_sum, monomial
from .forest_algebra import MAX_TREE_DEPTH, ForestTerm, Leaf, Node, RDecoTree, forest_sum
from .formal import FormalSum
from .symbols import deco, sym_from_name

# ---------------------------------------------------------------------------
# JSON

_COEFF_RE = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # str() of a Fraction


def _require(ok: bool, need: str, obj) -> None:
    if not ok:
        raise ValueError(f"{need}: {reprlib.repr(obj)}")


def _node_to_json(node):
    if type(node) is Leaf:
        return {"leaf": node.deco.name}
    children = []
    for ch in node.children:  # a loop, not a comprehension: one frame a level
        children.append(_node_to_json(ch))
    return {"children": children}


def _node_from_json(obj, depth=1):
    if isinstance(obj, dict) and isinstance(obj.get("leaf"), str):
        return Leaf(deco(obj["leaf"]))
    _require(isinstance(obj, dict) and isinstance(obj.get("children"), list),
             "tree node needs a 'leaf' name or a 'children' list", obj)
    _require(depth <= MAX_TREE_DEPTH,
             f"tree nested too deeply, over {MAX_TREE_DEPTH} internal levels", obj)
    children = []
    for ch in obj["children"]:  # a loop, not a generator: one frame a level
        children.append(_node_from_json(ch, depth + 1))
    return Node(tuple(children))


def tree_to_json(T: RDecoTree) -> dict:
    return {"root": T.root_deco.name, "node": _node_to_json(T.top)}


def tree_from_json(obj) -> RDecoTree:
    _require(isinstance(obj, dict) and isinstance(obj.get("root"), str) and "node" in obj,
             "tree needs a 'root' name and a 'node'", obj)
    return RDecoTree(deco(obj["root"]), _node_from_json(obj["node"]))


def forest_term_to_json(F: ForestTerm) -> dict:
    return {"sign": F.sign, "trees": [tree_to_json(t) for t in F.trees]}


def forest_term_from_json(obj) -> ForestTerm:
    _require(isinstance(obj, dict) and isinstance(obj.get("trees"), list),
             "forest term needs a 'trees' list", obj)
    sign = obj.get("sign", 1)
    _require(type(sign) is int and sign in (1, -1), "forest term sign must be 1 or -1", sign)
    return ForestTerm(tuple(tree_from_json(t) for t in obj["trees"]), sign)


def listed(S: FormalSum) -> list:
    """The (term, coefficient) pairs of S by ``str`` of the term (a forest
    term's pinned ``repr``): the one order in which a sum is written."""
    return sorted(S, key=lambda tc: str(tc[0]))


def _sum_entries(S: FormalSum, term_to_json):
    """The terms of S in ``listed`` order, each as a JSON object with a
    "coeff" string, made one at a time."""
    for t, c in listed(S):
        yield dict(term_to_json(t), coeff=str(c))


def _sum_from_json(entries, term_from_json):
    """Each entry's (term, coefficient), read from its "coeff" as
    ``_sum_entries`` writes it, one at a time."""
    _require(isinstance(entries, list), "a sum is a list of entries", entries)
    for obj in entries:
        term, coeff = term_from_json(obj), obj.get("coeff", "1")
        _require(isinstance(coeff, str) and _COEFF_RE.fullmatch(coeff),
                 "coefficient must be a string p or p/q", coeff)
        yield term, Fraction(coeff)


def forest_sum_entries(S: FormalSum):
    return _sum_entries(S, forest_term_to_json)


def forest_sum_to_json(S: FormalSum) -> list:
    return list(forest_sum_entries(S))


def forest_sum_from_json(entries) -> FormalSum:
    return forest_sum(_sum_from_json(entries, forest_term_from_json))


def cycle_term_to_json(t: CycleTerm) -> dict:
    obj = {"coords": [{s.name: e for s, e in c.q.exps} for c in t.coords]}
    plain = [i for i, c in enumerate(t.coords, start=1) if not c.one_minus]
    if plain:
        obj["plain"] = plain
    return obj


def cycle_term_from_json(obj) -> CycleTerm:
    _require(isinstance(obj, dict) and isinstance(obj.get("coords"), list),
             "cycle term needs a 'coords' list", obj)
    plain = obj.get("plain", [])
    n = len(obj["coords"])
    _require(isinstance(plain, list) and all(type(i) is int and 0 < i <= n for i in plain),
             f"'plain' must list positions 1..{n}", plain)
    coords = []
    for i, cobj in enumerate(obj["coords"], start=1):
        _require(isinstance(cobj, dict) and all(isinstance(name, str) and type(e) is int
                                                for name, e in cobj.items()),
                 "a coordinate maps symbol names to integer exponents", cobj)
        q = monomial({sym_from_name(name): e for name, e in cobj.items()})
        coords.append(Coordinate(q, i not in plain))
    return CycleTerm(tuple(coords))


def cycle_sum_entries(S: FormalSum):
    return _sum_entries(S, cycle_term_to_json)


def cycle_sum_to_json(S: FormalSum) -> list:
    return list(cycle_sum_entries(S))


def cycle_sum_from_json(entries) -> FormalSum:
    return cycle_sum((t.coords, c) for t, c in _sum_from_json(entries, cycle_term_from_json))


def write_json_list(entries, out) -> None:
    """Write ``json.dumps(list(entries), indent=2)`` and a newline to the
    text stream ``out``, one entry at a time, so that the whole document
    is never held.  A JSON string holds no raw newline, so indenting each
    line of an entry by two spaces nests it as the list would."""
    sep = "[\n  "
    for entry in entries:
        out.write(sep + json.dumps(entry, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    out.write("[]\n" if sep == "[\n  " else "\n]\n")


# ---------------------------------------------------------------------------
# LaTeX

_NAME_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


def sym_to_latex(name: str) -> str:
    m = _NAME_RE.match(name)
    if m:
        return f"{m.group(1)}_{{{m.group(2)}}}"
    return name


def monomial_to_latex(q) -> str:
    if q.is_one:
        return "1"
    num = []
    den = []
    for s, e in q.exps:
        base = sym_to_latex(s.name)
        piece = base if abs(e) == 1 else f"{base}^{{{abs(e)}}}"
        (num if e > 0 else den).append(piece)
    if not den:
        return " ".join(num)
    return rf"\frac{{{' '.join(num) or '1'}}}{{{' '.join(den)}}}"


def coordinate_to_latex(c: Coordinate) -> str:
    body = monomial_to_latex(c.q)
    return f"1-{body}" if c.one_minus else body


def cycle_term_to_latex(t: CycleTerm) -> str:
    return r"\left[" + r",\, ".join(coordinate_to_latex(c) for c in t.coords) + r"\right]"


def _coeff_prefix(c: Fraction) -> str:
    if c == 1:
        return "+"
    if c == -1:
        return "-"
    return ("+" if c > 0 else "-") + str(abs(c)) + r"\,"


def _sum_to_latex(S: FormalSum, term_to_latex) -> str:
    """The terms of S in ``listed`` order, each after its coefficient."""
    if S.is_zero():
        return "0"
    text = " ".join(_coeff_prefix(c) + term_to_latex(t) for t, c in listed(S))
    return text[1:] if text.startswith("+") else text


def cycle_sum_to_latex(S: FormalSum) -> str:
    return _sum_to_latex(S, cycle_term_to_latex)


def _node_to_latex(node) -> str:
    if type(node) is Leaf:
        return sym_to_latex(node.deco.name)
    parts = []
    for ch in node.children:  # a loop, not a generator: one frame a level
        parts.append(_node_to_latex(ch))
    return "(" + "\\,".join(parts) + ")"


def tree_to_latex(T: RDecoTree) -> str:
    # root decoration first, then the nested planar bracketing of branches
    return rf"\bigl({sym_to_latex(T.root_deco.name)};\ {_node_to_latex(T.top)}\bigr)"


def forest_term_to_latex(F: ForestTerm) -> str:
    if not F.trees:
        return r"\mathbf{1}"
    body = r" \star ".join(tree_to_latex(t) for t in F.trees)
    return body if F.sign >= 0 else "-" + body


def forest_sum_to_latex(S: FormalSum) -> str:
    return _sum_to_latex(S, forest_term_to_latex)
