"""The three workloads: which searches they run and how one search is driven.

A workload is a fixed set of searches per *round*; each search is what
``repro place --seed S`` runs, and the seeds ``S`` are part of the workload,
so a search's result -- and with it the search-quality metrics -- is the same
in every run.  The benchmark's ``--seed`` draws the order in which a round
makes its searches.

Each search is set up and run as ``repro place`` would: build the graph,
the environment, the agent (with grouper pretraining for EAGLE) and the
backend, then ``PlacementSearch.run``.  The module expects the checkout's
``src`` on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.experiments import make_agent
from repro.cli import _RESUME_KEYS, build_parser
from repro.core import (
    EvaluationPolicy, PlacementSearch, SearchCallback, SearchConfig, SearchResult,
)
from repro.core.checkpoint import CheckpointCallback
from repro.graph.models import build_benchmark
from repro.service import RemoteBackend
from repro.service.router import fetch_router_stats
from repro.sim import PlacementEnvironment, SerialBackend, Topology, make_backend

from tracing import Tracer

#: the ``repro place`` defaults every workload keeps.
ALGORITHM = "ppo"
MINIBATCH = 10


@dataclass(frozen=True)
class SearchSpec:
    """One search: a tenant graph, an agent, its seeds and its budget."""

    tenant: str
    agent: str
    seed: int
    samples: int
    groups: int = 64
    hidden: int = 128
    graph_kwargs: Tuple[Tuple[str, int], ...] = ()
    checkpoint: bool = False
    #: a restarted client repeating an earlier search of the same round.
    rerun: bool = False


@dataclass
class SearchRecord:
    """What one search produced, with the wall times around it."""

    spec: SearchSpec
    sid: int
    setup_s: float
    loop_s: float
    handshake_s: float
    batch_s: List[float]
    #: seconds from the start of set-up to the end of each minibatch.
    batch_done_s: List[float]
    result: SearchResult
    backend_stats: Dict[str, float]
    checkpoint_path: Optional[str] = None
    #: size of the final checkpoint file.
    checkpoint_kb: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: agent seeds per tenant: ``((tenant, agent, samples, seeds), ...)``.
    tenants: Tuple[Tuple[str, str, int, Tuple[int, ...]], ...]
    #: the round length the budgets are sized for on a 2-CPU box; a run
    #: makes ``max(1, seconds // round_s)`` rounds.
    round_s: float
    checkpoint: bool = False
    fleet: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eagle-inception",
            tenants=(("inception_v3", "eagle", 30, (0, 1, 2)),),
            round_s=20.0,
        ),
        Workload(
            "post-gnmt-ckpt",
            tenants=(("gnmt", "post", 200, (0, 1, 2)),),
            round_s=8.0,
            checkpoint=True,
        ),
        Workload(
            "remote-fleet",
            tenants=(
                ("inception_v3", "post", 200, (0, 1)),
                ("bert", "post", 200, (0, 1)),
            ),
            round_s=10.0,
            fleet=True,
        ),
    )
}

#: scaled-down stand-ins for the quick mode the benchmark's tests use.
QUICK_GRAPHS = {
    "inception_v3": ("gnmt", (("num_layers", 2), ("seq_len", 4))),
    "gnmt": ("gnmt", (("num_layers", 2), ("seq_len", 4))),
    "bert": ("bert", (("num_layers", 1), ("seq_len", 32))),
}


def round_specs(workload: Workload, seed: int, round_index: int, quick: bool) -> List[SearchSpec]:
    """The searches of one round in the order ``seed`` draws for it; on the
    fleet, each tenant then re-runs its first search."""
    rng = np.random.default_rng([seed, round_index])
    per_tenant = []
    for tenant, agent, samples, seeds in workload.tenants:
        graph, kwargs, groups, hidden = tenant, (), 64, 128
        if quick:
            graph, kwargs = QUICK_GRAPHS[tenant]
            samples, groups, hidden = 20, 8, 16
        per_tenant.append([
            SearchSpec(tenant=graph, agent=agent, seed=agent_seed, samples=samples,
                       groups=groups, hidden=hidden, graph_kwargs=kwargs,
                       checkpoint=workload.checkpoint)
            for agent_seed in seeds
        ])
    searches = [spec for specs in per_tenant for spec in specs]
    ordered = [searches[i] for i in rng.permutation(len(searches))]
    if workload.fleet:
        for specs in per_tenant:
            ordered.append(dataclasses.replace(specs[0], rerun=True))
    return ordered


# --------------------------------------------------------------------------- #
def build_env(spec: SearchSpec):
    graph = build_benchmark(spec.tenant, **dict(spec.graph_kwargs))
    return graph, PlacementEnvironment(graph, Topology.default_4gpu(), seed=spec.seed)


def build_agent(spec: SearchSpec, graph, env):
    return make_agent(
        spec.agent, graph, env.num_devices, num_groups=spec.groups,
        placer_hidden=spec.hidden, seed=spec.seed, topology=env.topology,
    )


def search_config(spec: SearchSpec):
    return SearchConfig(
        minibatch_size=MINIBATCH, max_samples=spec.samples,
        entropy_coef=0.1, entropy_coef_final=0.01,
    )


def checkpoint_meta(spec: SearchSpec) -> dict:
    """The ``meta["cli"]`` record ``place --checkpoint`` stores, taken from
    the ``place`` parser with this search's flags."""
    args = build_parser().parse_args([
        "place", "--model", spec.tenant, "--agent", spec.agent, "--algorithm", ALGORITHM,
        "--samples", str(spec.samples), "--groups", str(spec.groups),
        "--hidden", str(spec.hidden), "--seed", str(spec.seed),
    ])
    return {"cli": {key: getattr(args, key) for key in _RESUME_KEYS}}


class BatchClock(SearchCallback):
    """Wall time of each minibatch: from its start to this observer's
    ``on_update``, which runs after every observer before it (so after the
    checkpoint write)."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []

    def on_batch_start(self, engine, batch_index: int, batch_size: int) -> None:
        self.starts.append(time.perf_counter())

    def on_update(self, engine, stats) -> None:
        self.ends.append(time.perf_counter())


def _instrument(tracer: Tracer, engine, remote: bool) -> None:
    tracer.wrap(engine.agent, "sample_placements", "core.sample")
    tracer.wrap(engine.agent, "log_prob_and_entropy", "nn.forward", only_inside="rl.update")
    tracer.wrap(engine.algorithm.optimizer, "step", "nn.optim", only_inside="rl.update")
    tracer.wrap(engine.algorithm, "update", "rl.update")
    if remote:
        tracer.wrap(engine.backend, "prepare_batch", "service.prepare")
        tracer.wrap(engine.backend, "evaluate_batch", "service.evaluate")
    else:
        tracer.wrap(engine.backend, "evaluate_batch", "sim.evaluate")


def run_search(
    spec: SearchSpec, sid: int, tracer: Tracer, workdir: str, remote: Optional[str] = None
) -> SearchRecord:
    """Set up and run one search as ``repro place`` would, timing each part."""
    tracer.search = sid
    start = time.perf_counter()
    with tracer.span("graph.build"):
        graph, env = build_env(spec)
    with tracer.span("core.agent_init"):
        agent = build_agent(spec, graph, env)
    handshake_s = 0.0
    policy = None
    if remote is not None:
        dial = time.perf_counter()
        with tracer.span("service.handshake"):
            backend = make_backend(env, remote=remote, remote_timeout=30.0)
            backend.ping()
        handshake_s = time.perf_counter() - dial
        # What ``place --remote`` installs: network faults quarantine.
        policy = EvaluationPolicy(max_retries=3)
    else:
        backend = make_backend(env, seed=spec.seed)
    try:
        search = PlacementSearch(
            agent, env, ALGORITHM, search_config(spec), backend=backend, policy=policy
        )
        _instrument(tracer, search.engine, remote is not None)
        callbacks = []
        path = None
        if spec.checkpoint:
            path = os.path.join(workdir, f"search-{sid}.npz")
            callbacks.append(CheckpointCallback(path, every=1, extra_meta=checkpoint_meta(spec)))
        clock = BatchClock()
        callbacks.append(clock)
        setup_done = time.perf_counter()
        with tracer.span("core.search_loop"):
            result = search.run(callbacks=callbacks)
        loop_done = time.perf_counter()
        if remote is not None:
            stats = backend.stats()
        else:
            stats = {"hits": float(backend.hits), "misses": float(backend.misses)}
    finally:
        backend.close()
    return SearchRecord(
        spec=spec,
        sid=sid,
        setup_s=setup_done - start,
        loop_s=loop_done - setup_done,
        handshake_s=handshake_s,
        batch_s=[end - begin for begin, end in zip(clock.starts, clock.ends)],
        batch_done_s=[end - start for end in clock.ends],
        result=result,
        backend_stats=stats,
        checkpoint_path=path,
        checkpoint_kb=os.path.getsize(path) / 1024.0 if path else 0.0,
    )


def run_serial(spec: SearchSpec):
    """The same search in-process on a ``SerialBackend`` (no memo, no
    policy): the reference of the remote determinism contract."""
    graph, env = build_env(spec)
    agent = build_agent(spec, graph, env)
    search = PlacementSearch(
        agent, env, ALGORITHM, search_config(spec), backend=SerialBackend(env)
    )
    return search.run()


def build_engine(spec: SearchSpec):
    """A freshly constructed engine for ``spec`` (checkpoint restore target)."""
    graph, env = build_env(spec)
    agent = build_agent(spec, graph, env)
    backend = make_backend(env, seed=spec.seed)
    return PlacementSearch(agent, env, ALGORITHM, search_config(spec), backend=backend).engine


# --------------------------------------------------------------------------- #
_ADDRESS = re.compile(r" on (\S+:\d+)")


class Fleet:
    """Two ``repro serve --multi-tenant`` processes behind a ``repro route``.

    Every process is started from the checkout's ``src`` and stopped with
    SIGINT (the CLI's clean-shutdown path) by :meth:`stop`, which waits for
    each to exit.
    """

    SEED_MODELS = ("inception_v3", "bert")
    #: seconds the servers and the router have to come up.
    START_TIMEOUT_S = 60.0

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.procs: List[subprocess.Popen] = []
        self.servers: List[str] = []
        self.router: Optional[str] = None
        self.start_s = 0.0

    def _launch(self, name: str, args: List[str]) -> str:
        log = os.path.join(self.workdir, f"{name}.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"), PYTHONUNBUFFERED="1")
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args], cwd=self.root, env=env,
                stdout=out, stderr=subprocess.STDOUT,
            )
        self.procs.append(proc)
        return log

    def _wait_address(self, log: str, proc: subprocess.Popen, deadline: float) -> str:
        while time.monotonic() < deadline:
            with open(log) as fh:
                match = _ADDRESS.search(fh.read())
            if match:
                return match.group(1)
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"fleet process did not report its address; see {log}")

    def start(self) -> None:
        begin = time.perf_counter()
        deadline = time.monotonic() + self.START_TIMEOUT_S
        logs = [
            self._launch(f"server{i}", ["serve", "--multi-tenant", "--port", "0",
                                        "--model", model])
            for i, model in enumerate(self.SEED_MODELS)
        ]
        self.servers = [
            self._wait_address(log, proc, deadline) for log, proc in zip(logs, self.procs)
        ]
        log = self._launch("router", ["route", "--port", "0",
                                      "--backends", ",".join(self.servers)])
        self.router = self._wait_address(log, self.procs[-1], deadline)
        while True:
            try:
                fetch_router_stats(self.router, timeout=1.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self.start_s = time.perf_counter() - begin

    def server_stats(self) -> List[Dict[str, float]]:
        """Each server's ``stats`` RPC, over a handshake on its seed space."""
        out = []
        for address, model in zip(self.servers, self.SEED_MODELS):
            env = PlacementEnvironment(build_benchmark(model), Topology.default_4gpu())
            with RemoteBackend(env, address, pool_size=1) as client:
                out.append(client.remote_stats())
        return out

    def router_stats(self) -> Dict[str, float]:
        return fetch_router_stats(self.router)

    def server_peak_rss_mb(self) -> float:
        """Sum of the server processes' peak resident set (VmHWM)."""
        total = 0.0
        for proc in self.procs[: len(self.servers)]:
            try:
                with open(f"/proc/{proc.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += float(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self) -> None:
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

