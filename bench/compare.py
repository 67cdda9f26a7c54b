"""Compare two result files of ``suite.py``.

    python3 bench/compare.py before.json after.json

For each workload in both files, lists every end-to-end metric whose
median moved past its bound in BENCHMARK.json, worse or better, and any
change in the share of failed operations.  It reports and does not
gate: the exit code is 0 whatever moved.  Two files whose runs lasted
different lengths are not comparable; it says so and exits with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def moved(spec: dict, old: dict, new: dict):
    """(workload, metric, old, new, change, verdict) for each move past a bound."""
    out = []
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            continue
        a = old["workloads"][workload]
        b = new["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            x = a["end_to_end"][name]["median"]
            y = b["end_to_end"][name]["median"]
            change = (y - x) / x if x else float("inf")
            worse = change if metric["better"] == "lower" else -change
            if abs(change) > metric["bound"]:
                out.append((workload, name, x, y, change,
                            "worse" if worse > 0 else "better"))
        share_a = a["failed"] / a["attempted"] if a["attempted"] else 0.0
        share_b = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        if share_a != share_b:
            out.append((workload, "failed share", share_a, share_b,
                        share_b - share_a, "worse" if share_b > share_a else "better"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    for label, r in (("old", old), ("new", new)):
        m = r["machine"]
        print(f"{label}: {r['git_sha']} on {m['cpu_model']}, {m['cpus']} cpus"
              f"{', ' + m['note'] if m['note'] else ''}; seeds {r['seeds']}")
    if old["seconds"] != new["seconds"]:
        print(f"not comparable: runs of {old['seconds']} s against {new['seconds']} s")
        return 2
    rows = moved(spec, old, new)
    if not rows:
        print("no end-to-end metric moved past its bound")
    for workload, name, x, y, change, verdict in rows:
        print(f"{workload:14s} {name:14s} {x:.6g} -> {y:.6g} ({change:+.1%}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
