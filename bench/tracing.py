"""Per-layer tracing from outside the package.

``Tracer.install`` swaps each traced function for a wrapper in its home
module and in every other ``forest_cycles`` module that imported it by
name (``forest_cycling`` and ``hybrid`` import ``boundary``, ``tau``
imports ``d_contributions``), so calls inside the package are seen too.
``remove`` puts the originals back.  A wrapper counts calls and times
its span; a span's self time is its length minus the spans it encloses.
Functions that call themselves through a wrapper add busy time only at
the outermost level.

A ``repeat_ratio`` is the share of calls whose input was already seen
in the same pass: the traffic a cache keyed on that input would serve.
Inputs are remembered by their hash, so the sets stay small; two
different inputs with one 64-bit hash would be miscounted as a repeat.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "forest_cycles"


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "active", "counts", "seen")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counts = defaultdict(int)
        self.seen = set()

    def repeat(self, key) -> None:
        h = hash(key)
        if h in self.seen:
            self.counts["repeats"] += 1
        else:
            self.seen.add(h)


def _len_in_out(st, args, kwargs, result):
    st.counts["terms_in"] += len(args[0])
    st.counts["terms_out"] += len(result)


def _len_out(st, args, kwargs, result):
    st.counts["terms_out"] += len(result)


def _normalize_pre(st, args, kwargs):
    # the input may be any iterable; read it once and pass the tuple on
    coords = tuple(args[0])
    st.repeat(coords)
    return (coords,) + args[1:], kwargs


def _normalize_post(st, args, kwargs, result):
    if result is None:
        st.counts["zero"] += 1


def _face_pre(st, args, kwargs):
    t, i, eps = args
    st.repeat((t, i, eps == math.inf or eps == "inf"))
    return args, kwargs


def _face_post(st, args, kwargs, result):
    if result.flags:
        st.counts["flagged"] += 1
    elif result.is_empty:
        st.counts["empty"] += 1


def _tau_trees_post(st, args, kwargs, result):
    st.counts["trees"] += len(result)


def _admissible_post(st, args, kwargs, result):
    st.counts["faces_checked"] += result.faces_checked


def _quadrature_pre(st, args, kwargs):
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    if ctx is None:
        ctx = sys.modules[f"{PACKAGE}.numerics"].DEFAULT_CTX
    order = ctx.quadrature_order
    st.counts["quadrature_points"] += order ** len(args[0])
    return args, kwargs


# (module, function, before-call hook, after-call hook)
TRACED = (
    ("tau", "tau_trees", None, _tau_trees_post),
    ("forest_algebra", "d", None, _len_in_out),
    ("forest_algebra", "d_contributions", None, None),
    ("forest_algebra", "contract_components", None, None),
    ("forest_algebra", "star", None, _len_out),
    ("forest_cycling", "phi", None, _len_out),
    ("cycle_algebra", "normalize", _normalize_pre, _normalize_post),
    ("cycle_algebra", "face_outcome", _face_pre, _face_post),
    ("cycle_algebra", "boundary", None, _len_in_out),
    ("cycle_algebra", "is_admissible", None, _admissible_post),
    ("hybrid", "D", None, None),
    ("hybrid", "delta_term", None, None),
    ("hybrid", "verify_bounding", None, None),
    ("numerics", "simplex_integral", _quadrature_pre, None),
    ("numerics", "multiple_log_series", None, None),
)
GENERATORS = {("forest_algebra", "d_contributions")}
PEAK_ALLOC = ("numerics", "simplex_integral")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.stack = []  # one child-time accumulator per open span
        self.peak_alloc = 0
        self._swapped = []

    def reset(self) -> None:
        self.stats.clear()
        self.peak_alloc = 0

    # -- spans ------------------------------------------------------------

    def _open(self, st):
        st.active += 1
        frame = [0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, st, frame, t0) -> None:
        dt = time.perf_counter() - t0
        self.stack.pop()
        st.active -= 1
        st.self_s += dt - frame[0]
        if st.active == 0:
            st.busy_s += dt
        if self.stack:
            self.stack[-1][0] += dt

    def _wrap(self, key, fn, pre, post):
        tracer = self
        alloc = key == PEAK_ALLOC

        def wrapper(*args, **kwargs):
            st = tracer.stats[key]
            st.calls += 1
            if pre is not None:
                args, kwargs = pre(st, args, kwargs)
            outer_alloc = alloc and not tracemalloc.is_tracing()
            if outer_alloc:
                tracemalloc.start()
            frame, t0 = tracer._open(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, frame, t0)
                if outer_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_alloc = max(tracer.peak_alloc, peak)
            if post is not None:
                post(st, args, kwargs, result)
            return result

        def generator(*args, **kwargs):
            st = tracer.stats[key]
            st.calls += 1
            inner = fn(*args, **kwargs)
            while True:
                frame, t0 = tracer._open(st)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(st, frame, t0)
                st.counts["yields"] += 1
                yield item

        if key in GENERATORS:
            return generator
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for modname, name, pre, post in TRACED:
            home = sys.modules[f"{PACKAGE}.{modname}"]
            fn = getattr(home, name)
            wrappers[id(fn)] = (fn, self._wrap((modname, name), fn, pre, post))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._swapped.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in reversed(self._swapped):
            setattr(mod, attr, value)
        self._swapped.clear()

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the pass since the last ``reset``."""
        s = self.stats

        def stat(mod, name):
            return s[(mod, name)] if (mod, name) in s else _Stat()

        def ratio(st):
            return st.counts["repeats"] / st.calls if st.calls else 0.0

        tt = stat("tau", "tau_trees")
        d = stat("forest_algebra", "d")
        dc = stat("forest_algebra", "d_contributions")
        cc = stat("forest_algebra", "contract_components")
        star = stat("forest_algebra", "star")
        phi = stat("forest_cycling", "phi")
        nz = stat("cycle_algebra", "normalize")
        fo = stat("cycle_algebra", "face_outcome")
        bd = stat("cycle_algebra", "boundary")
        adm = stat("cycle_algebra", "is_admissible")
        si = stat("numerics", "simplex_integral")
        return {
            "tau.tau_trees.s": (tt.busy_s, "s"),
            "tau.trees": (tt.counts["trees"], "count"),
            "forest_algebra.d.calls": (d.calls, "count"),
            "forest_algebra.d.self_s": (d.self_s, "s"),
            "forest_algebra.d.terms_in": (d.counts["terms_in"], "count"),
            "forest_algebra.d.terms_out": (d.counts["terms_out"], "count"),
            "forest_algebra.d_contributions.self_s": (dc.self_s, "s"),
            "forest_algebra.d_contributions.yields": (dc.counts["yields"], "count"),
            "forest_algebra.contract_components.self_s": (cc.self_s, "s"),
            "forest_algebra.star.self_s": (star.self_s, "s"),
            "forest_algebra.star.terms_out": (star.counts["terms_out"], "count"),
            "forest_cycling.phi.calls": (phi.calls, "count"),
            "forest_cycling.phi.self_s": (phi.self_s, "s"),
            "forest_cycling.phi.terms_out": (phi.counts["terms_out"], "count"),
            "cycle_algebra.normalize.calls": (nz.calls, "count"),
            "cycle_algebra.normalize.self_s": (nz.self_s, "s"),
            "cycle_algebra.normalize.zero": (nz.counts["zero"], "count"),
            "cycle_algebra.normalize.repeat_ratio": (ratio(nz), "ratio"),
            "cycle_algebra.face_outcome.calls": (fo.calls, "count"),
            "cycle_algebra.face_outcome.self_s": (fo.self_s, "s"),
            "cycle_algebra.face_outcome.flagged": (fo.counts["flagged"], "count"),
            "cycle_algebra.face_outcome.empty": (fo.counts["empty"], "count"),
            "cycle_algebra.face_outcome.repeat_ratio": (ratio(fo), "ratio"),
            "cycle_algebra.boundary.self_s": (bd.self_s, "s"),
            "cycle_algebra.boundary.terms_in": (bd.counts["terms_in"], "count"),
            "cycle_algebra.boundary.terms_out": (bd.counts["terms_out"], "count"),
            "cycle_algebra.is_admissible.self_s": (adm.self_s, "s"),
            "cycle_algebra.is_admissible.faces_checked": (adm.counts["faces_checked"], "count"),
            "hybrid.D.self_s": (stat("hybrid", "D").self_s, "s"),
            "hybrid.delta_term.calls": (stat("hybrid", "delta_term").calls, "count"),
            "hybrid.verify_bounding.self_s": (stat("hybrid", "verify_bounding").self_s, "s"),
            "numerics.simplex_integral.calls": (si.calls, "count"),
            "numerics.simplex_integral.self_s": (si.self_s, "s"),
            "numerics.simplex_integral.quadrature_points": (si.counts["quadrature_points"], "count"),
            "numerics.multiple_log_series.self_s": (stat("numerics", "multiple_log_series").self_s, "s"),
            "numerics.peak_alloc_mb": (self.peak_alloc / 2 ** 20, "MB"),
        }
