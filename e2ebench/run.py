"""End-to-end placement-search benchmark.

Runs one workload (see ``workloads.py``) as a closed loop of seeded
searches, checks their outputs, and prints one JSON object as the last
line of standard output::

    python3 e2ebench/run.py --workload eagle-inception --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` runs one untraced and one traced round of the same searches,
reports the per-layer metrics of the traced one (their difference is
``trace.overhead_s``) and writes every span to ``--trace-out``.
``--quick`` swaps in scaled-down graphs and budgets (the benchmark's tests).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"error: no program to measure: {ROOT}/src/repro is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MINIBATCH, WORKLOADS, Fleet, SearchRecord, build_engine, build_env,
    round_specs, run_search, run_serial,
)

#: share of its own final best a search must come within (time-to-best).
TOLERANCE = 1.05


@dataclass
class Round:
    records: List[SearchRecord]
    tracer: Tracer
    fleet: Optional[Dict[str, object]] = None


def warm_up(workload, quick: bool, workdir: str) -> None:
    """One untimed single-minibatch search at the workload's own sizes, so
    the process's one-time costs (lazy imports, the first LAPACK call, heap
    growth to the working-set size) land outside every measured search."""
    spec = round_specs(workload, 0, 0, quick)[0]
    run_search(dataclasses.replace(spec, samples=MINIBATCH), -1, Tracer(enabled=False), workdir)


def run_round(workload, seed: int, round_index: int, quick: bool, tracer: Tracer,
              workdir: str, first_sid: int) -> Round:
    specs = round_specs(workload, seed, round_index, quick)
    fleet = Fleet(ROOT, workdir) if workload.fleet else None
    try:
        if fleet is not None:
            fleet.start()
        records = []
        with tracer.installed():
            for i, spec in enumerate(specs):
                records.append(run_search(spec, first_sid + i, tracer, workdir,
                                          remote=fleet.router if fleet else None))
        info = None
        if fleet is not None:
            info = {
                "start_s": fleet.start_s,
                "servers": fleet.server_stats(),
                "router": fleet.router_stats(),
                "peak_rss_mb": fleet.server_peak_rss_mb(),
            }
    finally:
        if fleet is not None:
            fleet.stop()
    return Round(records, tracer, info)


# --------------------------------------------------------------------------- #
def check_round(rnd: Round) -> Dict[int, List[str]]:
    """Problems per search id (empty when every check passed)."""
    problems: Dict[int, List[str]] = {}
    for rec in rnd.records:
        found = checks.history_problems(rec.result, rec.spec.samples)
        _graph, env = build_env(rec.spec)
        found += checks.resimulation_problems(rec.result, env)
        if rec.checkpoint_path is not None:
            found += checks.checkpoint_problems(
                rec.checkpoint_path, rec.result, lambda spec=rec.spec: build_engine(spec)
            )
        problems[rec.sid] = found
    if rnd.fleet is not None:
        reruns = [r for r in rnd.records if r.spec.rerun]
        fleet_found = checks.fleet_problems(
            rnd.fleet["servers"], [r.result for r in rnd.records],
            [r.backend_stats for r in rnd.records], expect_memo_hits=bool(reruns),
        )
        for rerun in reruns:
            fleet_found += checks.same_result_problems(run_serial(rerun.spec), rerun.result)
        for rec in rnd.records:
            problems[rec.sid] += fleet_found
    return problems


# --------------------------------------------------------------------------- #
def _best_batch(rec: SearchRecord) -> int:
    h = rec.result.history
    final = h.best_so_far[-1]
    index = next(i for i, b in enumerate(h.best_so_far) if b <= final * TOLERANCE)
    return index // MINIBATCH


def end_to_end(rounds: List[Round], peak_rss_mb: float) -> Dict[str, float]:
    """Per-round figures, median over rounds, so one round caught by a
    burst of host contention does not move the run's value.  ``peak_rss_mb``
    is the process's peak resident set at the end of the timed rounds."""
    records = [rec for rnd in rounds for rec in rnd.records]
    per_round = [
        (
            sum(r.setup_s for r in rnd.records),
            sum(r.result.num_samples for r in rnd.records) / sum(r.loop_s for r in rnd.records),
            statistics.mean(r.batch_done_s[_best_batch(r)] for r in rnd.records),
        )
        for rnd in rounds
    ]
    setup, rate, to_best = (statistics.median(column) for column in zip(*per_round))
    return {
        "setup_s": setup,
        "placements_per_s": rate,
        "time_to_best_s": to_best,
        "batch_p50_ms": 1e3 * statistics.median(t for r in records for t in r.batch_s),
        "best_step_ms": 1e3 * statistics.mean(r.result.final_time for r in records),
        "env_time_to_best_s": statistics.mean(
            r.result.history.time_to_best(TOLERANCE) for r in records
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def _p(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(plain: Round, traced: Round) -> Dict[str, float]:
    t = traced.tracer
    records = traced.records
    loop = t.total("core.search_loop")
    layers = sum(t.total(name) for name in (
        "core.sample", "rl.update", "sim.evaluate", "service.prepare",
        "service.evaluate", "core.checkpoint"))
    hits = sum(r.backend_stats.get("hits", 0.0) for r in records)
    misses = sum(r.backend_stats.get("misses", 0.0) for r in records)
    out = {
        "graph.build_s": t.total("graph.build"),
        "grouping.pretrain_s": t.total("grouping.pretrain"),
        "core.agent_init_s": t.total("core.agent_init"),
        "core.sample_s": t.total("core.sample"),
        "core.sample_p50_ms": 1e3 * _p(t.durations("core.sample"), 50),
        "rl.update_s": t.total("rl.update"),
        "rl.update_p50_ms": 1e3 * _p(t.durations("rl.update"), 50),
        "nn.forward_s": t.total("nn.forward"),
        "nn.backward_s": t.total("nn.backward"),
        "nn.optim_s": t.total("nn.optim"),
        "sim.evaluate_s": t.total("sim.evaluate"),
        "sim.evaluate_p50_ms": 1e3 * _p(t.durations("sim.evaluate"), 50),
        "sim.simulations": misses,
        "sim.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.checkpoint_s": t.total("core.checkpoint"),
        "core.checkpoint_p50_ms": 1e3 * _p(t.durations("core.checkpoint"), 50),
        "core.checkpoint_kb": statistics.mean(r.checkpoint_kb for r in records),
        "core.engine_self_s": loop - layers,
        "service.handshake_ms": 1e3 * statistics.median(r.handshake_s for r in records),
        "service.rpc_s": t.total("service.prepare") + t.total("service.evaluate"),
        "service.rpc_p50_ms": 1e3 * _p(t.durations("service.prepare"), 50),
        "service.rpc_p90_ms": 1e3 * _p(t.durations("service.prepare"), 90),
        "service.rpcs": sum(r.backend_stats.get("rpc_batches", 0.0) for r in records),
        "trace.overhead_s": sum(r.setup_s + r.loop_s for r in traced.records)
        - sum(r.setup_s + r.loop_s for r in plain.records),
        "trace.layer_share": layers / loop,
    }
    fleet = traced.fleet or {}
    servers = fleet.get("servers", [])
    lookups = sum(s["memo_hits"] + s["memo_misses"] for s in servers)
    out.update({
        "service.server_simulations": sum(s["simulations"] for s in servers),
        "service.server_memo_hit_ratio": (
            sum(s["memo_hits"] for s in servers) / lookups if lookups else 0.0
        ),
        "service.router_connections": fleet.get("router", {}).get("connections", 0.0),
        "service.fleet_start_s": fleet.get("start_s", 0.0),
        "service.server_peak_rss_mb": fleet.get("peak_rss_mb", 0.0),
    })
    return out


# --------------------------------------------------------------------------- #
def load_benchmark_json() -> Dict[str, str]:
    """metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; a run makes max(1, seconds // "
                             "round length) rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="span file for --trace 1 (default: "
                             ".e2ebench/trace-<workload>-<seed>.json)")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down graphs and budgets")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    units = load_benchmark_json()
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".e2ebench")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        warm_up(workload, args.quick, workdir)
        if args.trace:
            plan = [(0, Tracer(enabled=False)), (0, Tracer(enabled=True))]
        else:
            count = max(1, int(args.seconds // workload.round_s))
            plan = [(r, Tracer(enabled=False)) for r in range(count)]
        rounds: List[Round] = []
        for round_index, tracer in plan:
            first_sid = sum(len(r.records) for r in rounds)
            rounds.append(run_round(workload, args.seed, round_index, args.quick,
                                    tracer, workdir, first_sid))
        # Read before the checks, whose reference searches and fresh engines
        # would otherwise set the high-water mark.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems: Dict[int, List[str]] = {}
        for rnd in rounds:
            problems.update(check_round(rnd))
        # A search repeated -- in a later round, traced, or re-run by a
        # restarted client -- must repeat its first result bit for bit.
        first: Dict[object, SearchRecord] = {}
        for rec in (rec for rnd in rounds for rec in rnd.records):
            ref = first.setdefault(dataclasses.replace(rec.spec, rerun=False), rec)
            if ref is not rec:
                problems[rec.sid] += checks.same_result_problems(ref.result, rec.result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [rec for rnd in rounds for rec in rnd.records]
    failed = sum(rec.result.num_samples for rec in records if problems[rec.sid])
    for sid, found in sorted(problems.items()):
        for problem in found:
            print(f"check failed (search {sid}): {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer(rounds[0], rounds[1])
    else:
        values = end_to_end(rounds, peak_rss_mb)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    if args.trace:
        path = args.trace_out or os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        rounds[1].tracer.dump(path, metrics)
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    report = {
        "correct": not failed and not bad,
        "attempted": sum(rec.result.num_samples for rec in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
