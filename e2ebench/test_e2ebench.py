"""The benchmark's own tests: quick end-to-end runs and doctored outputs.

    python -m pytest e2ebench -q

Quick runs use scaled-down graphs and budgets (``run.py --quick``), so the
whole file takes well under a minute.  Each correctness check is shown to
pass on real output and to fail on a doctored copy of it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, build_engine, build_env, round_specs, run_search,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_is_correct_and_complete(workload):
    report = _last_json(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--quick"))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in report["metrics"].values())


def test_quick_traced_run_reports_every_layer(tmp_path):
    trace = tmp_path / "trace.json"
    report = _last_json(_run("--workload", "remote-fleet", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--quick", "--trace-out", str(trace)))
    assert report["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert report["metrics"]["trace.layer_share"]["value"] >= 0.9
    assert report["metrics"]["service.rpcs"]["value"] > 0
    dumped = json.loads(trace.read_text())
    names = {span["name"] for span in dumped["spans"]}
    assert {"core.search_loop", "core.sample", "rl.update", "service.prepare"} <= names


def test_seed_orders_a_fixed_set_of_searches():
    for workload in WORKLOADS.values():
        specs = round_specs(workload, 5, 0, False)
        assert specs == round_specs(workload, 5, 0, False)
        originals = sorted((s for s in specs if not s.rerun), key=repr)
        for seed in range(6, 12):
            others = round_specs(workload, seed, 0, False)
            assert sorted((s for s in others if not s.rerun), key=repr) == originals


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero, printing
    no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "post-gnmt-ckpt", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def searched(tmp_path_factory):
    """One quick checkpointed in-process search and its record."""
    workdir = str(tmp_path_factory.mktemp("search"))
    spec = round_specs(WORKLOADS["post-gnmt-ckpt"], 7, 0, quick=True)[0]
    return spec, run_search(spec, 0, Tracer(enabled=False), workdir)


def test_history_check(searched):
    spec, rec = searched
    assert checks.history_problems(rec.result, spec.samples) == []
    doctored = copy.deepcopy(rec.result)
    doctored.history.best_so_far[-1] *= 0.5
    assert checks.history_problems(doctored, spec.samples)
    short = copy.deepcopy(rec.result)
    short.history.env_time.pop()
    assert checks.history_problems(short, spec.samples)


def test_wrong_best_time_fails_resimulation(searched):
    spec, rec = searched
    _graph, env = build_env(spec)
    assert checks.resimulation_problems(rec.result, env) == []
    doctored = copy.deepcopy(rec.result)
    doctored.final_time *= 0.97
    assert checks.resimulation_problems(doctored, env)
    doctored = copy.deepcopy(rec.result)
    doctored.best_time *= 1.05
    assert checks.resimulation_problems(doctored, env)


def test_corrupted_checkpoint_fails(searched, tmp_path):
    spec, rec = searched
    fresh = lambda: build_engine(spec)  # noqa: E731
    assert checks.checkpoint_problems(rec.checkpoint_path, rec.result, fresh) == []
    damaged = tmp_path / "damaged.npz"
    data = bytearray(open(rec.checkpoint_path, "rb").read())
    data[len(data) // 2] ^= 0xFF
    damaged.write_bytes(bytes(data))
    assert checks.checkpoint_problems(str(damaged), rec.result, fresh)
    other = copy.deepcopy(rec.result)
    other.best_time *= 0.9
    assert checks.checkpoint_problems(rec.checkpoint_path, other, fresh)


def test_determinism_check(searched):
    _spec, rec = searched
    assert checks.same_result_problems(rec.result, copy.deepcopy(rec.result)) == []
    doctored = copy.deepcopy(rec.result)
    doctored.history.per_step_time[3] += 1e-12
    assert checks.same_result_problems(rec.result, doctored)


def test_duplicated_simulation_fails_fleet_check(searched):
    _spec, rec = searched
    clean = [{"simulations": 40.0, "memo_entries": 40.0, "memo_hits": 12.0}]
    ok = [{"faults": 0.0}]
    assert checks.fleet_problems(clean, [rec.result], ok, expect_memo_hits=True) == []
    duplicated = [{"simulations": 41.0, "memo_entries": 40.0, "memo_hits": 12.0}]
    assert checks.fleet_problems(duplicated, [rec.result], ok, expect_memo_hits=True)
    faulty = copy.deepcopy(rec.result)
    faulty.num_faults = faulty.num_retries = 1
    assert checks.fleet_problems(clean, [faulty], ok, expect_memo_hits=True)
    assert checks.fleet_problems(clean, [rec.result], [{"faults": 1.0}],
                                 expect_memo_hits=True)
    assert checks.fleet_problems(clean, [rec.result], [{"loading_retries": 1.0}],
                                 expect_memo_hits=True)


def test_rerun_without_memo_hits_fails_fleet_check(searched):
    _spec, rec = searched
    missed = [{"simulations": 40.0, "memo_entries": 40.0, "memo_hits": 0.0}]
    assert checks.fleet_problems(missed, [rec.result], [{}], expect_memo_hits=False) == []
    assert checks.fleet_problems(missed, [rec.result], [{}], expect_memo_hits=True)
