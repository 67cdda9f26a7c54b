"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload chain-map --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src`` directory and nowhere else.  The run sets the workload up, then
makes whole passes over its cases for about ``--seconds``: at least one
pass, and no pass starts that would end more than half a pass late.
The last line of standard output is one JSON object:

    {"correct": true, "attempted": 222, "failed": 1, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(the median of the set-ups, see ``SETUP_SAMPLES`` and ``setup``),
``verdict_s`` (median pass), ``case_p50_ms`` and ``case_p90_ms`` (over
every case of every pass) and ``peak_rss_mb``.  All times are rescaled
to the reference machine speed: the case times by
``calibration_sample``, the set-ups by ``REFERENCE_IMPORTS``.  With
``--trace 1`` the run sets up once, and untraced and traced passes
alternate; the metrics are the per-layer ones of the traced passes
(medians, in plain seconds), ``trace.overhead_s``, the traced minus the
untraced median pass, and ``machine.calibration_ms``.  A wrong output ends the run with
``correct`` false and exit code 1, and so does a pass with another
number of cases than the workload expects.  An operation timed apart
from the passes (``Workload.apart``) that raises ``OutOfClassError``
counts as failed and the run goes on; in a pass case that error is a
wrong output.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import logging
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from oracle import Wrong, require
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups per run: one in the run's own process, the others in fresh
# interpreters so every import is cold.  A set-up is about 0.15 s, mostly
# the import of numpy, and a stall of tens of milliseconds moves one by a
# third, so ``setup_s`` is the median of many.
SETUP_SAMPLES = 15
# Stdlib modules that neither the package nor the benchmark imports, in
# two groups imported cold just before and just after each set-up.  Cold
# imports drift with the machine as the set-up does, so each set-up is
# rescaled by them; see ``setup``.
REFERENCE_IMPORTS = (("ftplib", "difflib", "pickletools"),
                     ("xml.sax", "html.parser", "configparser", "csv", "wave",
                      "optparse"))
# Seconds the reference imports take on the reference machine.
REFERENCE_IMPORT_S = 0.030
# Seconds that ``calibration_sample`` takes on the reference machine when
# nothing else competes for its core.  Reported times are rescaled to it.
CALIBRATION_REF_S = 0.035


def run_seconds() -> float:
    """The run length of BENCHMARK.json, the default of ``--seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def import_package():
    package_dir = SRC / "forest_cycles"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no forest_cycles source under {SRC}")
    sys.path.insert(0, str(SRC))
    import forest_cycles

    if Path(forest_cycles.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: forest_cycles imported from {forest_cycles.__file__}")
    # phi warns on each non-generic forest, and d makes those by design
    logging.getLogger("forest_cycles.forest_cycling").setLevel(logging.ERROR)
    return forest_cycles


def import_seconds(modules) -> float:
    t0 = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    return time.perf_counter() - t0


def setup(name: str, seed: int):
    """Package import, input generation and fixture loading.

    Returns the package, the workload and the set-up's seconds, plain
    and rescaled to the reference speed by the reference imports made
    around it.  Over fourteen groups of 15 fresh-process set-ups, the
    median of the plain times spread 0.198 (first to third quartile over
    the median) and the rescaled ones 0.040; rescaling by the calibration
    loop instead gave 0.080.
    """
    before = import_seconds(REFERENCE_IMPORTS[0])
    t0 = time.perf_counter()
    fc = import_package()
    workload = WORKLOADS[name](fc, seed)
    seconds = time.perf_counter() - t0
    reference = before + import_seconds(REFERENCE_IMPORTS[1])
    return fc, workload, (seconds, seconds * REFERENCE_IMPORT_S / reference)


def probe_setup(name: str, seed: int) -> tuple:
    """One more set-up, in a fresh interpreter so the import is cold."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    plain, rescaled = out.stdout.strip().splitlines()[-1].split()
    return float(plain), float(rescaled)


def calibration_sample() -> float:
    """Seconds for a fixed stdlib loop shaped like the package's inner
    loops: tuple keys, dict updates, Fraction sums and a sort.

    On a shared host the speed of a core drifts by a third and more, over
    seconds and over minutes, and pure-Python work drifts with it.  The
    loop drifts the same way and uses nothing of the package, so dividing
    by it takes the machine out of the figures and leaves the program in.
    The collector is off while it runs: a full collection walks every
    live object of the process, and the sample would then grow with the
    package's heap rather than with the core's speed.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(6000):
            key = (i % 97, i % 89, "c")
            acc[key] = acc.get(key, 0) + Fraction(i % 7, 3)
        sorted(acc.items())
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class Clock:
    """Calibration samples taken between cases, one every half second."""

    EVERY_S = 0.5

    def __init__(self):
        self.at = []
        self.seconds = []
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.seconds.append(calibration_sample())
            self.at.append(time.perf_counter())

    def scale(self, t: float) -> float:
        """Reference over local speed: the samples just before and after t."""
        i = bisect.bisect(self.at, t)
        near = self.seconds[max(i - 1, 0):i + 1]
        return CALIBRATION_REF_S * len(near) / sum(near)


class Tally:
    """Case times and operation counts over the passes of a run."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.passes = []  # per pass, (midpoint, seconds) of each case
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # label -> (message, seconds)

    def run_pass(self, workload, out_of_class) -> float:
        """One pass; its time is the sum of its case times."""
        cases = []
        for label, call in workload.cases():
            self.clock.tick()
            cases.append(self._op(label, call, out_of_class, apart=False))
        require(len(cases) == workload.case_count(),
                f"a pass made {len(cases)} cases, not {workload.case_count()}")
        self.passes.append(cases)
        for label, call in workload.apart:
            self._op(label, call, out_of_class, apart=True)
        return sum(dt for _, dt in cases)

    def _op(self, label, call, out_of_class, apart: bool):
        self.attempted += 1
        c0 = time.perf_counter()
        try:
            call()
        except out_of_class as exc:
            message = f"{type(exc).__name__}: {exc}"
            if not apart:
                raise Wrong(f"{label}: {message}") from exc
            self.failed += 1
            self.failures[label] = (message, time.perf_counter() - c0)
        dt = time.perf_counter() - c0
        return c0 + dt / 2, dt


def end_to_end(tally: Tally, setup_samples) -> dict:
    clock = tally.clock
    passes = [[dt * clock.scale(t) for t, dt in cases] for cases in tally.passes]
    case_ms = [dt * 1e3 for cases in passes for dt in cases]
    return {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "verdict_s": (statistics.median(sum(cases) for cases in passes), "s"),
        "case_p50_ms": (statistics.median(case_ms), "ms"),
        "case_p90_ms": (statistics.quantiles(case_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(verdicts, traced_verdicts, calibration, layer_samples) -> dict:
    out = {}
    for key, (_, unit) in layer_samples[0].items():
        out[key] = (statistics.median(s[key][0] for s in layer_samples), unit)
    out["trace.overhead_s"] = (statistics.median(traced_verdicts)
                               - statistics.median(verdicts), "s")
    out["machine.calibration_ms"] = (statistics.median(calibration) * 1e3, "ms")
    return out


def report(correct: bool, tally: Tally, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for label, (message, seconds) in tally.failures.items():
        print(f"  failed: {label}: {message} ({seconds:.3f} s)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the seconds taken and exit")
    args = ap.parse_args(argv)

    fc, workload, first_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(*first_setup)
        return 0
    setup_samples = [first_setup]
    if not args.trace:  # the traced run reports no set-up time
        setup_samples += [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    workload.expect()

    tally = Tally(Clock())
    tracer = Tracer() if args.trace else None
    verdicts, traced_verdicts, layer_samples = [], [], []
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    start = time.perf_counter()
    try:
        # stop when the next pass would end more than half a pass late
        while not verdicts or (time.perf_counter() - start
                               + verdicts[-1] / 2 < args.seconds):
            verdicts.append(tally.run_pass(workload, fc.OutOfClassError))
            if tracer is None:
                continue
            tracer.reset()
            tracer.install()
            try:
                traced_verdicts.append(tally.run_pass(workload, fc.OutOfClassError))
            finally:
                tracer.remove()
            layer_samples.append(tracer.metrics())
    except Wrong as exc:
        print(f"  WRONG OUTPUT: {exc}")
        report(False, tally, {})
        return 1
    passes = len(verdicts) + len(traced_verdicts)
    calibration = tally.clock.seconds
    print(f"  {passes} passes, {tally.attempted // passes} operations each; "
          f"plain median pass {statistics.median(verdicts):.4g} s; "
          f"{len(calibration)} calibration samples, median "
          f"{statistics.median(calibration) * 1e3:.4g} ms "
          f"(reference {CALIBRATION_REF_S * 1e3:.4g} ms); "
          f"{len(setup_samples)} set-ups, plain median "
          f"{statistics.median(p for p, _ in setup_samples):.4g} s")
    if tracer is None:
        metrics = end_to_end(tally, setup_samples)
    else:
        metrics = per_layer(verdicts, traced_verdicts, calibration, layer_samples)
    report(True, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
