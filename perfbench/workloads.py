"""The benchmark's four workloads.

Each workload turns ``(seed, size)`` into :data:`INPUT_SETS` fixed op
lists and runs one of them per *pass*; pass ``i`` runs input set
``i mod INPUT_SETS``, so a run averages over several inputs drawn from
its seed. A pass is set up fresh (new result cache, prefix store, daemon
socket), run, and torn down, so no pass reads another's results.
:meth:`Workload.setup` is what ``setup_s`` times and :meth:`Workload.run`
is what ``run_s`` times.

An op is one simulation (in-process workloads), one campaign job, or one
daemon request. Every op is handed to :meth:`Pass.add` as it finishes;
the caller checks it there (see ``checks.py``).
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.config import RevokerKind, SimulationConfig
from repro.core.metrics import RunResult
from repro.core.simulation import Simulation
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    CampaignProgress,
    CampaignSpec,
    PoolExecutor,
    ResultCache,
    WorkloadSpec,
    execute_job,
    job_from_dict,
    run_campaign,
    stable_seed,
)
from repro.serve.client import ServeClient, ServeError
from repro.snapshot.prefix import PrefixStore
from repro.workloads import spec as spec_catalog
from repro.workloads.churn import ChurnWorkload
from repro.workloads.pgbench import PgBenchWorkload

#: Worker processes, threads or connections any workload uses.
WORKERS = 2
#: Distinct op lists a run cycles through.
INPUT_SETS = 4


@dataclass
class Op:
    """One finished (or failed) op of a pass."""

    #: Stable name of the op's inputs; ops with equal keys must produce
    #: equal results (a repeated serve request shares its original's key).
    key: str
    latency_s: float
    result: RunResult | None = None
    #: The finished simulation, for in-process ops (invariant checks).
    sim: Simulation | None = None
    error: str | None = None


@dataclass
class Pass:
    """State of one pass, from setup to teardown."""

    root: Path
    #: Which of the workload's input sets this pass runs.
    variant: int = 0
    ops: list[Op] = field(default_factory=list)
    #: Workload-specific facts the per-layer metrics read.
    facts: dict[str, Any] = field(default_factory=dict)
    #: Called with each op as it finishes (the caller checks it there,
    #: so a finished simulation's heap is dropped before the next op).
    on_op: Callable[[Op], None] | None = None

    def add(self, op: Op) -> None:
        self.ops.append(op)
        if self.on_op is not None:
            self.on_op(op)


def sub_seed(seed: int, *parts: int) -> int:
    """A deterministic seed for one op, derived from the run's seed."""
    return 1 + stable_seed("perfbench", seed, *parts, bits=32) % (1 << 31)


class Workload:
    """Base class: fixed op lists, one run per pass."""

    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size

    def setup(self, state: Pass) -> None:
        state.root.mkdir(parents=True)

    def run(self, state: Pass, *, in_process: bool = False, recorder: Any = None) -> None:
        raise NotImplementedError

    def teardown(self, state: Pass) -> None:
        shutil.rmtree(state.root, ignore_errors=True)

    def op_count(self, variant: int) -> int:
        """Ops in one pass."""
        raise NotImplementedError

    def reference_jobs(self, variant: int) -> list[tuple[str, Callable[[], RunResult]]]:
        """``(key, thunk)`` for every distinct op of one input set,
        computed in-process; the committed digests come from these."""
        raise NotImplementedError


class _InProcess(Workload):
    """Ops are ``Simulation(...).run()`` calls in this process."""

    def ops(self, variant: int) -> list[tuple[str, Callable[[], Any], SimulationConfig]]:
        """``(key, workload factory, config)`` per op."""
        raise NotImplementedError

    def setup(self, state: Pass) -> None:
        super().setup(state)
        state.facts["ops"] = self.ops(state.variant)

    def run(self, state: Pass, *, in_process: bool = False, recorder: Any = None) -> None:
        for index, (key, factory, config) in enumerate(state.facts["ops"]):
            if recorder is not None:
                recorder.op_id = index
            began = time.perf_counter()
            try:
                sim = Simulation(factory(), config)
                result = sim.run()
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
                state.add(Op(key, time.perf_counter() - began, error=error))
                continue
            op = Op(key, time.perf_counter() - began, result=result, sim=sim)
            del sim  # the op holds the only reference; the check releases it
            state.add(op)

    def op_count(self, variant: int) -> int:
        return len(self.ops(variant))

    def reference_jobs(self, variant: int) -> list[tuple[str, Callable[[], RunResult]]]:
        return [
            (key, lambda f=factory, c=config: Simulation(f(), c).run())
            for key, factory, config in self.ops(variant)
        ]


class SpecMutator(_InProcess):
    """xalancbmk.ref and omnetpp.ref at heap scale 256, under none and
    reloaded, with the catalog churn volume truncated."""

    name = "spec-mutator"
    #: Share of the catalog churn volume kept (a full input takes ~165 s).
    CHURN_FRACTION = {"full": 1 / 50, "tiny": 1 / 2000}

    def ops(self, variant: int) -> list[tuple[str, Callable[[], Any], SimulationConfig]]:
        out = []
        fraction = self.CHURN_FRACTION[self.size]
        for index, bench in enumerate(("xalancbmk", "omnetpp")):
            seed = sub_seed(self.seed, variant, index)
            base = spec_catalog.workload(bench, "ref", scale=256, seed=seed)
            profile = dataclasses.replace(
                base.profile, churn_bytes=int(base.profile.churn_bytes * fraction)
            )

            def factory(p=profile, q=base.quarantine_policy) -> ChurnWorkload:
                return ChurnWorkload(p, quarantine_policy=q)

            for kind in (RevokerKind.NONE, RevokerKind.RELOADED):
                key = f"{bench}.ref/scale=256/churn={profile.churn_bytes}/seed={seed}/{kind.value}"
                out.append((key, factory, SimulationConfig(revoker=kind)))
        return out


class PgbenchSweep(_InProcess):
    """pgbench under cornucopia and reloaded, several seeds per pass."""

    name = "pgbench-sweep"
    #: (transactions per run, seeds per revoker)
    SHAPE = {"full": (40, 3), "tiny": (6, 1)}

    def ops(self, variant: int) -> list[tuple[str, Callable[[], Any], SimulationConfig]]:
        transactions, replicates = self.SHAPE[self.size]
        out = []
        for rep in range(replicates):
            seed = sub_seed(self.seed, variant, rep)
            for kind in (RevokerKind.CORNUCOPIA, RevokerKind.RELOADED):
                key = f"pgbench/tx={transactions}/seed={seed}/{kind.value}"
                out.append((
                    key,
                    lambda s=seed: PgBenchWorkload(transactions=transactions, seed=s),
                    SimulationConfig(revoker=kind),
                ))
        return out


class _TimedProgress(CampaignProgress):
    """Campaign progress that keeps, per job label, its execution time
    and when its result arrived (seconds after the campaign started)."""

    def __init__(self, total: int) -> None:
        super().__init__(total)
        self.began = time.perf_counter()
        self.elapsed: dict[str, float] = {}
        self.arrived: dict[str, float] = {}

    def job_finished(
        self, label: str, *, cached: bool, elapsed: float, warm: str | None = None
    ) -> None:
        super().job_finished(label, cached=cached, elapsed=elapsed, warm=warm)
        self.elapsed[label] = elapsed
        self.arrived[label] = time.perf_counter() - self.began


class CampaignSweep(Workload):
    """The shape of examples/campaign.json — {hmmer.retro, gobmk.13x13,
    pgbench} x 4 revokers x 2 seeds — through ``run_campaign`` with
    warm-start on, a fresh result cache and prefix store per pass."""

    name = "campaign-sweep"
    #: (spec scale, pgbench transactions, seeds per condition)
    SHAPE = {"full": (2048, 40, 2), "tiny": (8192, 4, 1)}

    def campaign(self, variant: int) -> CampaignSpec:
        scale, transactions, nseeds = self.SHAPE[self.size]
        return CampaignSpec(
            name="perfbench",
            workloads=[
                WorkloadSpec("spec", {"benchmark": "hmmer", "input": "retro", "scale": scale}),
                WorkloadSpec("spec", {"benchmark": "gobmk", "input": "13x13", "scale": scale}),
                WorkloadSpec("pgbench", {"transactions": transactions}),
            ],
            revokers=[RevokerKind(r) for r in ("none", "cherivoke", "cornucopia", "reloaded")],
            seeds=[sub_seed(self.seed, variant, i) for i in range(nseeds)],
            config={"revoker_core": 2},
        )

    def setup(self, state: Pass) -> None:
        super().setup(state)
        (state.root / "cache").mkdir()
        (state.root / "prefix").mkdir()
        # Warm-start on: the pool and its forked workers read the prefix
        # store from the environment.
        os.environ["REPRO_PREFIX_DIR"] = str(state.root / "prefix")
        state.facts["spec"] = self.campaign(state.variant)

    def run(self, state: Pass, *, in_process: bool = False, recorder: Any = None) -> None:
        spec: CampaignSpec = state.facts["spec"]
        jobs = spec.expand()
        progress = _TimedProgress(len(jobs))
        workers = 1 if in_process else WORKERS
        try:
            outcome = run_campaign(
                spec,
                executor=PoolExecutor(max_workers=workers),
                cache=ResultCache(state.root / "cache"),
                progress=progress,
            )
            results: list[RunResult | None] = list(outcome.results)
            error = None
        except Exception as exc:  # one failed job fails the whole batch
            results = [None] * len(jobs)
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - progress.began
        state.facts.update(
            wall_s=wall_s,
            workers=workers,
            progress=progress,
            prefix_bytes=sum(p.stat().st_size for p in PrefixStore(state.root / "prefix").paths()),
        )
        # A job's latency is from campaign submission to its result: what
        # a caller waiting on the batch sees, prefix gating included.
        for job, result in zip(jobs, results):
            label = job.describe()
            state.add(Op(label, progress.arrived.get(label, wall_s), result=result, error=error))

    def teardown(self, state: Pass) -> None:
        os.environ.pop("REPRO_PREFIX_DIR", None)
        super().teardown(state)

    def op_count(self, variant: int) -> int:
        return len(self.campaign(variant).expand())

    def reference_jobs(self, variant: int) -> list[tuple[str, Callable[[], RunResult]]]:
        return [
            (job.describe(), lambda j=job: execute_job(j))
            for job in self.campaign(variant).expand()
        ]


class ServeMixed(Workload):
    """A ``repro.serve`` daemon with 2 warm workers, driven in a closed
    loop over 2 connections; every fourth request repeats one of the
    connection's own earlier requests (a cache read)."""

    name = "serve-mixed"
    #: (spec scale, requests per connection)
    SHAPE = {"full": (2048, 64), "tiny": (8192, 8)}
    MIX = tuple(
        (bench, inp, kind)
        for bench, inp in (("hmmer", "retro"), ("gobmk", "13x13"))
        for kind in ("none", "cherivoke", "cornucopia", "reloaded")
    )

    def _job(self, variant: int, conn: int, index: int, kind: int) -> dict[str, Any]:
        scale, _ = self.SHAPE[self.size]
        bench, inp, revoker = self.MIX[kind]
        params = {
            "benchmark": bench,
            "input": inp,
            "scale": scale,
            "seed": sub_seed(self.seed, variant, conn, index, 1),
        }
        return {
            "workload": {"kind": "spec", "params": params},
            "revoker": revoker,
            "config": {"revoker_core": 2},
        }

    def requests(self, variant: int, conn: int) -> list[tuple[str, dict[str, Any], bool]]:
        """``(key, job, is_repeat)`` in send order for one connection.
        Fresh requests go through :data:`MIX` in rounds, each round in a
        seed-shuffled order, so every seed sends the same mix of jobs.
        A repeat names one of the connection's own earlier requests, so
        it has completed and must be answered from the cache."""
        _, per_conn = self.SHAPE[self.size]
        rng = random.Random(sub_seed(self.seed, variant, conn))
        order: list[int] = []
        sent: list[tuple[str, dict[str, Any]]] = []
        out = []
        for index in range(per_conn):
            if index % 4 == 3:
                key, job = sent[rng.randrange(len(sent))]
                out.append((key, job, True))
            else:
                if not order:
                    order = rng.sample(range(len(self.MIX)), len(self.MIX))
                job = self._job(variant, conn, index, order.pop())
                key = job_from_dict(job).describe()
                sent.append((key, job))
                out.append((key, job, False))
        return out

    def setup(self, state: Pass) -> None:
        super().setup(state)
        socket_path = os.path.relpath(state.root / "d.sock")
        if len(socket_path) > 100:
            raise RuntimeError(f"socket path too long for AF_UNIX: {socket_path}")
        state.facts["socket"] = socket_path
        state.facts["requests"] = [self.requests(state.variant, c) for c in range(WORKERS)]
        state.facts["log"] = log = open(state.root / "daemon.log", "wb")
        state.facts["daemon"] = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--workers", str(WORKERS),
                "--queue", "64",
                "--cache-dir", str(state.root / "cache"),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        with ServeClient(socket_path=socket_path) as client:
            client.wait_ready(timeout=60.0)
        # Warm every worker with one job each (seeds outside any timed
        # set), so the timed requests meet warm workers.
        warm = [
            {
                "workload": {"kind": "spec", "params": {
                    "benchmark": "hmmer", "input": "retro", "scale": 8192, "seed": 1 + w,
                }},
                "revoker": "reloaded",
                "config": {"revoker_core": 2},
            }
            for w in range(WORKERS)
        ]
        errors: list[Exception] = []

        def warm_one(job: dict[str, Any]) -> None:
            try:
                with ServeClient(socket_path=socket_path) as client:
                    client.run_job_dict(job, timeout=60.0)
            except ServeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=warm_one, args=(job,)) for job in warm]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        if errors:
            raise errors[0]

    def run(self, state: Pass, *, in_process: bool = False, recorder: Any = None) -> None:
        socket_path = state.facts["socket"]
        lists = state.facts["requests"]
        outcomes: list[list[Op]] = [[] for _ in lists]
        overheads: list[float] = []

        def client_loop(conn: int) -> None:
            with ServeClient(socket_path=socket_path, request_timeout=60.0) as client:
                for index, (key, job, repeat) in enumerate(lists[conn]):
                    if recorder is not None:
                        recorder.set_thread_op(conn * 100_000 + index)
                    began = time.perf_counter()
                    try:
                        response = client.run_job_dict(job)
                    except (ReproError, OSError) as exc:
                        outcomes[conn].append(Op(
                            key, time.perf_counter() - began, error=f"{type(exc).__name__}: {exc}"
                        ))
                        continue
                    latency = time.perf_counter() - began
                    op = Op(key, latency, result=response.result)
                    overheads.append(latency - response.service_s)
                    if repeat and not response.cached:
                        op.error = "repeated request was not answered from the cache"
                    outcomes[conn].append(op)

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(len(lists))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        state.facts["client_overhead_s"] = overheads
        for conn_ops in outcomes:
            for op in conn_ops:
                state.add(op)

    def teardown(self, state: Pass) -> None:
        daemon: subprocess.Popen | None = state.facts.get("daemon")
        try:
            if daemon is not None and daemon.poll() is None:
                state.facts["child_peak_kib"] = tree_peak_kib(daemon.pid)
                try:
                    with ServeClient(socket_path=state.facts["socket"], retries=0) as client:
                        state.facts["stats"] = client.stats()
                except (ReproError, OSError):
                    state.facts["stats"] = None
                daemon.send_signal(signal.SIGTERM)
                try:
                    daemon.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    daemon.kill()
                    daemon.wait(timeout=30.0)
        finally:
            log = state.facts.get("log")
            if log is not None:
                log.close()
            super().teardown(state)

    def op_count(self, variant: int) -> int:
        return WORKERS * self.SHAPE[self.size][1]

    def reference_jobs(self, variant: int) -> list[tuple[str, Callable[[], RunResult]]]:
        seen: dict[str, Callable[[], RunResult]] = {}
        for conn in range(WORKERS):
            for key, job, _ in self.requests(variant, conn):
                seen.setdefault(key, lambda j=job: execute_job(job_from_dict(j)))
        return list(seen.items())


def tree_peak_kib(root: int) -> int:
    """Largest peak RSS (``VmHWM``, KiB) among a live process and its
    live descendants."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    parents[int(entry)] = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
    tree, grown, peak = {root}, True, 0
    while grown:
        grown = False
        for pid, parent in parents.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grown = True
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except (OSError, ValueError):
            continue
    return peak


def serve_stats(state: Pass) -> MetricsRegistry | None:
    """The daemon's metrics registry as its ``stats`` verb returned it."""
    stats = state.facts.get("stats")
    return None if stats is None else MetricsRegistry.from_dict(stats["stats"])


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SpecMutator, PgbenchSweep, CampaignSweep, ServeMixed)
}
