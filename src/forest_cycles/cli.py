"""Command-line front end.

Subcommands: tau (emit a tree sum), phi (emit its cycle image or the image of a
tree file), verify (run a named verification suite), eval (numeric series /
integral / comparison).  Exit codes: 0 pass, 1 verification failure, 2 usage or
unsupported-class errors, 141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import checks
from . import forest_algebra as fa
from . import forest_cycling as fc
from . import hybrid as hy
from . import numerics as nm
from . import serialize as sz
from .cycle_algebra import OutOfClassError
from .symbols import deco
from .tau import TauSpec, standard_spec, tau, tau_trees


def _spec(ns) -> TauSpec:
    if ns.decos:
        return TauSpec(tuple(deco(s.strip()) for s in ns.decos.split(",") if s.strip()))
    return standard_spec(ns.m)


def _floats(text: str) -> list:
    xs = [float(s) for s in text.split(",")] if text else []
    if any(map(math.isnan, xs)):
        raise ValueError(f"not a number in --x {text}")
    return xs


def cmd_tau(ns) -> int:
    spec = _spec(ns)
    S = tau(spec)
    if ns.fmt == "json":
        sz.write_json_list(sz.forest_sum_entries(S), sys.stdout)
    elif ns.fmt == "latex":
        print(sz.forest_sum_to_latex(S))
    else:
        print(f"tau over {spec.m} decorations: {len(S)} trees")
        for F, c in sz.listed(S):
            print(f"  {c} * {sz.forest_term_to_latex(F)}")
    return 0


def cmd_phi(ns) -> int:
    if ns.tree_file:
        with open(ns.tree_file) as fh:
            try:
                obj = json.load(fh)
            except RecursionError:  # the decoder nests one call per JSON container
                raise ValueError(f"{ns.tree_file}: tree nested too deeply") from None
        S = fc.phi(fa.tree_sum(sz.tree_from_json(obj)))
    else:
        S = fc.phi(tau(_spec(ns)))
    if ns.fmt == "json":
        sz.write_json_list(sz.cycle_sum_entries(S), sys.stdout)
    elif ns.fmt == "latex":
        print(sz.cycle_sum_to_latex(S))
    else:
        for t, c in sz.listed(S):
            print(f"{c} * {t}")
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _report(line: str, res: checks.CheckResult, note: str = "") -> bool:
    print(f"{line}: {'pass' if res.passed else 'FAIL'}{note}")
    if not res.passed:
        print(f"  {res.witness}")
    return res.passed


def _suite_d2(ns) -> bool:
    rng = random.Random(ns.seed)
    res = checks.d_squared([checks.random_forest(rng) for _ in range(ns.count)])
    return _report(f"d^2 = 0 on {ns.count} random forests", res)


def _suite_leibniz(ns) -> bool:
    rng = random.Random(ns.seed)
    pairs = [(checks.random_forest(rng, 5), checks.random_forest(rng, 5))
             for _ in range(max(1, ns.count // 2))]
    return _report(f"graded Leibniz on {len(pairs)} random pairs",
                   checks.star_leibniz(pairs))


def _suite_del2(ns) -> bool:
    res = checks.boundary_squared(fc.phi(fa.tree_sum(T))
                                  for spec in ns.specs for T in tau_trees(spec))
    return _report(f"boundary^2 = 0 on tree images up to m = {ns.m}", res)


def _suite_chain_map(ns) -> bool:
    res = checks.chain_map(T for spec in ns.specs for T in tau_trees(spec))
    return _report(f"chain map on all tree-sum trees up to m = {ns.m}", res)


def _suite_cancellation(ns) -> bool:
    return _report(f"internal cancellation and two-tree splitting up to m = {ns.m}",
                   checks.tau_cancellation(ns.specs))


def _suite_admissibility(ns) -> bool:
    res = checks.admissibility(t for spec in ns.specs for t, _ in fc.phi(tau(spec)))
    return _report(f"admissibility of tree images up to m = {ns.m}", res)


def _suite_bounding(ns) -> bool:
    ok = True
    for name in [ns.fixture] if ns.fixture else hy.FIXTURES:
        chain, target, _meta = hy.load_fixture(name)
        res = checks.bounding([(name, chain, target)])
        ok = _report(f"fixture {name}", res,
                     f" ({res.cases} negligible residual terms)") and ok
    return ok


def _suite_numeric(ns) -> bool:
    ok = True
    if ns.xs:
        value, series, diff = checks.integral_vs_series(ns.xs, ns.ctx)
        print(f"integral {value:.12f} vs series {series:.12f} "
              f"(signed diff {diff:.2e}): {'pass' if diff < ns.tol else 'FAIL'}")
        ok = ok and diff < ns.tol
    for name in hy.FIXTURES:
        value, expected, gap = checks.fixture_integral(name, ns.ctx)
        good = gap < ns.tol
        print(f"fixture {name} topological integral {value:.10f} "
              f"expected {expected:.10f}: {'pass' if good else 'FAIL'}")
        ok = ok and good
    resid = nm.check_diffLi(0.3, 0.4, ns.ctx)
    good = resid < 1e-5
    print(f"differential identity residual {resid:.2e}: {'pass' if good else 'FAIL'}")
    return ok and good


_SUITES = {
    "d2": _suite_d2,
    "leibniz": _suite_leibniz,
    "del2": _suite_del2,
    "chain-map": _suite_chain_map,
    "cancellation": _suite_cancellation,
    "admissibility": _suite_admissibility,
    "bounding": _suite_bounding,
    "numeric": _suite_numeric,
}


def cmd_verify(ns) -> int:
    # before any suite runs, so bad input prints nothing else
    for flag, value, least in (("--m", ns.m, 2), ("--count", ns.count, 1)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    ns.xs = _floats(ns.xs)
    ns.specs = [standard_spec(m) for m in range(2, ns.m + 1)]
    # NumericContext checks --order, then --tol; the suites' series use 1e-8 at most
    nm.NumericContext(ns.order, ns.tol)
    ns.ctx = nm.NumericContext(ns.order, min(ns.tol, 1e-8))
    ok = True
    for name in list(_SUITES) if ns.suite == "all" else [ns.suite]:
        ok = _SUITES[name](ns) and ok
    return 0 if ok else 1


def cmd_eval(ns) -> int:
    nm.NumericContext(tolerance=ns.tol)  # the rule for --tol, before the order's
    ctx = nm.NumericContext(quadrature_order=ns.order)
    xs = _floats(ns.xs)
    if ns.mode != "series":
        # first, since it rejects a doubled order over the limit before
        # any integral is computed
        value, error = nm.integral_with_error(xs, ctx)
    if ns.mode == "compare":
        _, series, gap = checks.integral_vs_series(xs, ctx, value)
        report = {"value": value, "error_estimate": error,
                  "series": series, "comparison": gap, "passed": gap < ns.tol}
    elif ns.mode == "integral":
        report = {"value": value, "error_estimate": error}
    else:
        report = {"series": nm.multiple_log_series(xs, ctx).real}
    print(json.dumps(report, indent=2))
    return 0 if report.get("passed", True) else 1


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="forest-cycles", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--m", type=int, default=3)
        p.add_argument("--decos", type=str, default="",
                       help="comma-separated decoration names (default x1..xm)")
        p.add_argument("--format", dest="fmt", choices=("text", "json", "latex"),
                       default="text")

    p_tau = sub.add_parser("tau", help="emit the tree sum")
    common(p_tau)
    p_tau.set_defaults(handler=cmd_tau)

    p_phi = sub.add_parser("phi", help="emit the cycle image")
    common(p_phi)
    p_phi.add_argument("--tree", dest="tree_file", default=None,
                       help="JSON tree file instead of the tree sum")
    p_phi.set_defaults(handler=cmd_phi)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=[*_SUITES, "all"])
    p_ver.add_argument("--m", type=int, default=5)
    p_ver.add_argument("--fixture", choices=hy.FIXTURES, default=None)
    p_ver.add_argument("--x", dest="xs", type=str, default="")
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--count", type=int, default=200)
    p_ver.add_argument("--order", type=int, default=32)
    p_ver.set_defaults(handler=cmd_verify)

    p_ev = sub.add_parser("eval", help="numeric evaluation")
    p_ev.add_argument("mode", choices=("series", "integral", "compare"))
    p_ev.add_argument("--x", dest="xs", type=str, required=True)
    p_ev.add_argument("--tol", type=float, default=1e-6)
    p_ev.add_argument("--order", type=int, default=32)
    p_ev.set_defaults(handler=cmd_eval)
    return top


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return ns.handler(ns)
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, the flush at exit
        # included, and exit as a filter killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (OutOfClassError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
