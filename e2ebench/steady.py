"""Steadiness of the end-to-end metrics, and agreement between two sets.

Measure one set: run every workload of ``BENCHMARK.json`` ten times,
alternating workloads, with seeds 1 to 10; save every result and print each
metric's median, quartiles and relative spread (quartile distance over
median)::

    python3 e2ebench/steady.py measure --out set-a.json

Compare two sets made from the same code against the bounds in
``BENCHMARK.json``: each spread must stay within its metric's bound, the
two medians of a metric may differ by at most the bound (in either
direction, relative to the first), and the share of failed operations must
be the same::

    python3 e2ebench/steady.py compare set-a.json set-b.json

Both exit 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

#: runs per workload in one set, with seeds 1..RUNS.
RUNS = 10

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def host_steal_s() -> float:
    """CPU seconds the host has taken from this machine's vCPUs so far
    (the ``steal`` column of ``/proc/stat``; 0 where it is unavailable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def set_summary(results: Dict[str, List[dict]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    out = {}
    for workload, runs in results.items():
        names = runs[0]["metrics"].keys()
        out[workload] = {
            name: summarize([run["metrics"][name]["value"] for run in runs]) for name in names
        }
    return out


def measure(args, bench) -> int:
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results: Dict[str, List[dict]] = {w: [] for w in workloads}
    ok = True
    for seed in range(1, RUNS + 1):
        for workload in workloads:
            command = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
            begin, steal = time.monotonic(), host_steal_s()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["wall_s"] = time.monotonic() - begin
            result["steal_s"] = host_steal_s() - steal
            ok &= result["correct"]
            results[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f}s "
                  f"(host steal {result['steal_s']:.1f}s) "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, metrics in set_summary(results).items():
        print(f"\n{workload}")
        for name, s in metrics.items():
            mark = " " if s["spread"] <= bounds[name] / 3 else "*"
            print(f" {mark} {name:20s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:7.2%}  bound {bounds[name]:.0%}")
    print("\n(* marks a spread above a third of its bound)")
    return 0 if ok else 1


def compare(args, bench) -> int:
    sets = []
    for path in (args.first, args.second):
        with open(path) as fh:
            sets.append(json.load(fh))
    summaries = [set_summary(s) for s in sets]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    failures = []
    for workload in sets[0]:
        for name, m in metrics.items():
            a, b = (s[workload][name] for s in summaries)
            for label, s in (("first", a), ("second", b)):
                if s["spread"] > m["bound"]:
                    failures.append(f"{workload} {name}: {label} spread {s['spread']:.2%} "
                                    f"> bound {m['bound']:.0%}")
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            status = "ok" if abs(worse) <= m["bound"] else "DIFFERS"
            if status != "ok":
                failures.append(f"{workload} {name}: second median {worse:+.2%} worse")
            print(f"{workload:16s} {name:20s} {a['median']:12.4f} -> {b['median']:12.4f} "
                  f"({worse:+7.2%} worse, bound {m['bound']:.0%}) {status}")
        shares = [
            sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
            for s in sets
        ]
        if shares[0] != shares[1]:
            failures.append(f"{workload}: failed shares differ: {shares[0]} != {shares[1]}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("measure", help="run every workload ten times, alternating")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare", help="check two measured sets against the bounds")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)
    bench = load_benchmark_json()
    return measure(args, bench) if args.command == "measure" else compare(args, bench)


if __name__ == "__main__":
    sys.exit(main())
