"""The benchmark still finds what it calls and what it wraps.

``bench/workloads.py`` calls the package and ``bench/tracing.py`` wraps
package functions by module and name, so a rename in ``src/`` would
otherwise only show up as a failing benchmark run.  One pass of every
workload, its ``apart`` operations included, runs here.
"""

import json
import math
import sys

import pytest

import forest_cycles as fc
from forest_cycles import forest_algebra as fa  # the package imports every traced module
from forest_cycles.cycle_algebra import face_outcome
from helpers import BENCH, left_comb3, load_bench


def test_tracer_wraps_every_traced_function():
    tracing = load_bench("tracing")
    homes = [(sys.modules[f"{tracing.PACKAGE}.{mod}"], name)
             for mod, name, _pre, _post in tracing.TRACED]
    originals = [getattr(mod, name) for mod, name in homes]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [f"{mod.__name__}.{name}"
                     for (mod, name), fn in zip(homes, originals)
                     if getattr(mod, name) is fn]
        fa.d(fa.tree_sum(left_comb3()))  # through the module, as the bench calls it
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    assert unwrapped == []
    assert [getattr(mod, name) for mod, name in homes] == originals
    # one contribution per edge of the five-edge tree, five surviving terms
    assert metrics["forest_algebra.d_contributions.yields"][0] == 5
    assert metrics["forest_algebra.d.terms_out"][0] == 5
    # one contraction per edge, each through the module global the tracer wraps
    assert tracer.stats[("forest_algebra", "contract_components")].calls == 5


def test_tracer_sees_normalize_and_faces_under_the_chain_map():
    # a fast path inlined past these module globals would hide the two
    # layers from the per-layer benchmark
    image = fc.phi(fc.tree_sum(left_comb3()))
    producing = sum(1 for t, _ in image for i in range(1, t.n + 1) for eps in (0, math.inf)
                    if face_outcome(t, i, eps).contributions)
    tracer = load_bench("tracing").Tracer()
    tracer.install()
    try:
        fc.boundary(fc.phi(fc.tree_sum(left_comb3())))
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    assert metrics["forest_cycling.phi.calls"][0] == 1
    # one call for the image; for this image every later normalize call
    # yields a term, so the count is 1 + producing
    assert metrics["cycle_algebra.normalize.calls"][0] == 1 + producing
    # two faces per coordinate of the five-coordinate image
    assert metrics["cycle_algebra.face_outcome.calls"][0] == 10


def test_tracer_sees_normalize_and_faces_under_the_admissibility_walk():
    # the walk too calls both layers through the module globals, or the
    # admissibility workload's per-layer run would not see them
    term = fc.phi(fc.tau(fc.standard_spec(4))).terms()[0]
    tracer = load_bench("tracing").Tracer()
    tracer.install()
    try:
        faces = fc.is_admissible(term).faces_checked
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    assert faces > 0
    assert metrics["cycle_algebra.is_admissible.faces_checked"][0] == faces
    assert metrics["cycle_algebra.face_outcome.calls"][0] == faces
    assert metrics["cycle_algebra.normalize.calls"][0] >= 1


# the workloads that ``bench/run.py`` runs, as ``BENCHMARK.json`` declares them
BENCHMARK = json.loads(BENCH.with_name("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_one_full_pass(name, monkeypatch):
    if name == "periods":
        pytest.importorskip("mpmath")  # for the reference sums of its ``expect``
    monkeypatch.syspath_prepend(str(BENCH))  # for its own imports of inputs and oracle
    workload = load_bench("workloads").WORKLOADS[name](fc, 1)
    workload.expect()
    # each case runs before the generator is asked for the next
    verdicts = [call() for _label, call in workload.cases()]
    assert len(verdicts) == workload.case_count()
    for _label, call in workload.apart:
        call()
