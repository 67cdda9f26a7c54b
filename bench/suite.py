"""Run every workload, print every metric, and write a result file.

    python3 bench/suite.py --seeds 1,2,3 --out result.json --note "laptop, on mains"

Each workload runs in its own single-threaded process, one after the
other: one untraced run per seed, then one traced run on the first seed.
Every run lasts ``run_seconds`` of BENCHMARK.json.  The result file
holds every run, the median and quartiles of each end-to-end metric over
the seeds, the per-layer metrics, the git SHA and a machine note;
``compare.py`` reads two of them.  The exit code is 1 if any run failed or reported a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _proc_field(path: str, field: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(field):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine(note: str) -> dict:
    return {
        "note": note,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write(proc.stdout if proc.returncode == 0 else proc.stdout + proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "exit": proc.returncode}
    result = json.loads(lines[-1])
    result.update(seed=seed, exit=proc.returncode)
    return result


def summarize(runs) -> dict:
    out = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--out", default=None, help="result file to write")
    ap.add_argument("--note", default="", help="machine note for the result file")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    result = {"git_sha": git_sha(), "machine": machine(args.note),
              "seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        ok = ok and all(r["correct"] and r["exit"] == 0 for r in runs + [traced])
        result["workloads"][workload] = {
            "runs": runs,
            "end_to_end": summarize(runs),
            "per_layer": traced["metrics"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs + [traced]),
        }
        w = result["workloads"][workload]
        print(f"== {workload}: {w['attempted']} attempted, {w['failed']} failed, "
              f"correct {w['correct']}")
        for name, s in w["end_to_end"].items():
            print(f"   {name:14s} median {s['median']:.6g} {s['unit']} "
                  f"(quartiles {s['q1']:.6g} .. {s['q3']:.6g}, {len(runs)} seeds)")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
