"""Run the benchmark as two interleaved sets of seeds and record the spread.

    python3 perfbench/baseline.py --seeds 1-10 --trace 0 --out seed-e2e.json

Set 1 takes the given seeds and set 2 as many seeds right after them
(11-20 above). The runs alternate in time: for each position k and each
workload of BENCHMARK.json, set 1's k-th seed, then set 2's. So a change
of the machine's speed over the recording reaches both sets alike, and a
difference between them is the benchmark's own. Each run is one call of
``run.py`` with the run length of BENCHMARK.json.

For every metric each set holds the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. ``change`` is how far set
2's median moved from set 1's, as a share of set 1's; for an end-to-end
metric, a move toward "worse" beyond its bound is flagged. The Python
version, commit and processor count are recorded beside the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, spec: dict, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
    took = time.perf_counter() - started
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    return result


def summarise_set(runs: list, bounds: dict) -> dict:
    metrics = {}
    for name in runs[0]["metrics"]:
        metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
        metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        if name in bounds:
            metrics[name]["bound"] = bounds[name]["bound"]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "max_run_s": max(r["run_s"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="set 1's seeds, as 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first = parse_seeds(args.seeds)
    seed_sets = [first, [max(first) + 1 + i for i in range(len(first))]]
    runs = {(s, w): [] for s in (0, 1) for w in names}
    for k in range(len(first)):
        for workload in names:
            for s, seeds in enumerate(seed_sets):
                result = run_once(workload, seeds[k], spec, args.trace)
                runs[s, workload].append(result)
                print(f"set {s + 1} {workload} seed {seeds[k]}: {result['run_s']:.1f} s, "
                      f"correct {result['correct']}, "
                      + ", ".join(f"{n} {v['value']:.5g}" for n, v in result["metrics"].items()
                                  if n in bounds), flush=True)
    summary = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "trace": args.trace, "order": "interleaved", "sets": []}
    for s, seeds in enumerate(seed_sets):
        summary["sets"].append({"seeds": seeds, "workloads": {
            w: summarise_set(runs[s, w], bounds) for w in names}})
    summary["change"] = compare(*summary["sets"], bounds)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    report(summary)
    return 0


def compare(set1: dict, set2: dict, bounds: dict) -> dict:
    """Per workload and metric: set 2's median against set 1's."""
    change = {}
    for workload, w in set2["workloads"].items():
        before = set1["workloads"][workload]["metrics"]
        change[workload] = {}
        for name, m in w["metrics"].items():
            if not before[name]["median"]:
                continue
            moved = m["median"] / before[name]["median"] - 1
            entry = {"change": moved}
            if name in bounds:
                worse = moved if bounds[name]["better"] == "lower" else -moved
                entry["worse_beyond_bound"] = worse > bounds[name]["bound"]
            change[workload][name] = entry
    return change


def report(summary: dict) -> None:
    for workload in summary["change"]:
        for s, one in enumerate(summary["sets"]):
            w = one["workloads"][workload]
            print(f"== {workload} set {s + 1}: correct {w['correct']}, jobs {w['attempted']}, "
                  f"failed {w['failed']}, longest run {w['max_run_s']:.1f} s")
        for name, m in summary["sets"][0]["workloads"][workload]["metrics"].items():
            if "bound" not in m and summary["trace"] == 0:
                continue
            m2 = summary["sets"][1]["workloads"][workload]["metrics"][name]
            line = (f"  {name:<40} median {m['median']:<12.6g} {m2['median']:<12.6g} "
                    f"spread {m['spread']:.4f} {m2['spread']:.4f}")
            if "bound" in m:
                line += f" (bound {m['bound']}, third {m['bound'] / 3:.4f})"
            moved = summary["change"][workload].get(name)
            if moved:
                line += f" change {moved['change']:+.4f}"
                if moved.get("worse_beyond_bound"):
                    line += " WORSE BEYOND BOUND"
            print(line)


if __name__ == "__main__":
    raise SystemExit(main())
