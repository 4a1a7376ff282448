"""Correctness checks, run after the timed window.

Each check returns a list of problems (empty when it passes) so that the
benchmark's tests can feed it doctored inputs.  Nothing here compares
against stored output: the references are an independent re-simulation,
the serial-backend determinism contract and a checkpoint round trip.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.checkpoint import CheckpointCorruptError, load_checkpoint, restore_engine

#: a reported time may sit this many standard deviations of its noise from
#: the noiseless simulation before the check fails.
NOISE_SIGMAS = 6.0


def history_problems(result, budget: int) -> List[str]:
    """The per-sample trace is complete and self-consistent."""
    h = result.history
    problems = []
    if len(h) != budget or result.num_samples != budget:
        problems.append(f"{len(h)} measurements recorded, {result.num_samples} counted, "
                        f"budget {budget}")
    best = math.inf
    for i, (t, valid, b) in enumerate(zip(h.per_step_time, h.valid, h.best_so_far)):
        if valid:
            best = min(best, t)
        if b != best:
            problems.append(f"best_so_far[{i}]={b!r} is not the running minimum {best!r}")
            break
    if any(later > earlier for earlier, later in zip(h.best_so_far, h.best_so_far[1:])):
        problems.append("best_so_far increases")
    if any(later < earlier for earlier, later in zip(h.env_time, h.env_time[1:])):
        problems.append("environment time decreases")
    if h.env_time and h.env_time[-1] != result.env_time:
        problems.append(f"last environment time {h.env_time[-1]!r} != "
                        f"SearchResult.env_time {result.env_time!r}")
    if h.best_so_far and h.best_so_far[-1] != result.best_time:
        problems.append(f"best_so_far ends at {h.best_so_far[-1]!r}, "
                        f"best_time is {result.best_time!r}")
    return problems


def resimulation_problems(result, env) -> List[str]:
    """Re-simulate the best placement in a fresh environment (no memo,
    backend or server): it must be valid, and the reported times must lie
    in the environment's noise band around its noiseless time."""
    if result.best_placement is None:
        return ["search reported no valid placement"]
    raw = env.simulate_raw(result.best_placement)
    if raw.is_oom:
        return ["reported best placement is out of memory when re-simulated"]
    problems = []
    # A measured time is the noiseless time times the mean of
    # ``measure_steps`` lognormal draws; the final evaluation uses one draw
    # with the spread of a 1000-step mean.
    bands = (
        ("best_time", result.best_time, env.noise_std / math.sqrt(env.measure_steps)),
        ("final_time", result.final_time, env.noise_std / math.sqrt(1000)),
    )
    for name, value, sigma in bands:
        if not abs(math.log(value / raw.base_time)) <= NOISE_SIGMAS * sigma:
            problems.append(f"{name} {value * 1e3:.4f} ms is outside the noise band "
                            f"of the re-simulated {raw.base_time * 1e3:.4f} ms")
    return problems


def same_result_problems(a, b) -> List[str]:
    """Bit-for-bit equality of two ``SearchResult`` objects."""
    problems = []
    for name in ("best_time", "final_time", "env_time", "num_samples", "num_invalid",
                 "num_faults", "num_retries", "num_quarantined"):
        if getattr(a, name) != getattr(b, name):
            problems.append(f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}")
    if not np.array_equal(a.best_placement, b.best_placement):
        problems.append("best placements differ")
    for name in ("env_time", "per_step_time", "best_so_far", "valid"):
        if getattr(a.history, name) != getattr(b.history, name):
            problems.append(f"history.{name} differs")
    return problems


def checkpoint_problems(path: str, result, fresh_engine) -> List[str]:
    """The final checkpoint loads with its digest verified and, restored
    into a freshly built engine, reproduces the search's state."""
    try:
        state = load_checkpoint(path)
    except (CheckpointCorruptError, OSError, ValueError) as exc:
        return [f"checkpoint does not load: {exc}"]
    if not state["meta"].get("complete"):
        return ["final checkpoint is not marked complete"]
    engine = fresh_engine()
    try:
        restore_engine(engine, state)
    except (KeyError, ValueError) as exc:
        return [f"checkpoint does not restore: {exc}"]
    problems = []
    if engine.num_samples != result.num_samples:
        problems.append(f"restored {engine.num_samples} samples, search made "
                        f"{result.num_samples}")
    if engine.best_time != result.best_time:
        problems.append(f"restored best {engine.best_time!r} != {result.best_time!r}")
    for name in ("env_time", "per_step_time", "best_so_far", "valid"):
        if getattr(engine.history, name) != getattr(result.history, name):
            problems.append(f"restored history.{name} differs")
    return problems


def fleet_problems(server_stats: Sequence[Dict[str, float]], results,
                   client_stats: Sequence[Dict[str, float]],
                   expect_memo_hits: bool) -> List[str]:
    """Nothing simulated twice on any server; no fault, retry or replay
    anywhere; and, when the round re-ran searches (``expect_memo_hits``),
    the servers' shared memo served hits."""
    problems = []
    for i, stats in enumerate(server_stats):
        if stats.get("simulations") != stats.get("memo_entries"):
            problems.append(f"server {i}: {stats.get('simulations')} simulations for "
                            f"{stats.get('memo_entries')} memo entries")
        if stats.get("repro_service_worker_errors_total", 0.0):
            problems.append(f"server {i}: worker errors")
    if expect_memo_hits and not sum(s.get("memo_hits", 0.0) for s in server_stats):
        problems.append("re-runs were served no memo hits")
    for result in results:
        if result.num_faults or result.num_retries or result.num_quarantined:
            problems.append(f"search saw {result.num_faults} faults, {result.num_retries} "
                            f"retries, {result.num_quarantined} quarantines")
    for stats in client_stats:
        if stats.get("faults") or stats.get("replayed") or stats.get("loading_retries"):
            problems.append(f"client saw {stats.get('faults')} faults, "
                            f"{stats.get('replayed')} replays, "
                            f"{stats.get('loading_retries')} loading retries")
    return problems
