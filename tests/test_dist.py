"""Multi-node sharded campaigns (repro.dist, docs/DIST.md).

Ring determinism and minimal disruption; node-list parsing; and the
coordinator end-to-end against real in-process serve daemons:
bit-identical results vs local execution, batch dedup, local-cache
affinity, rehash failover off a crashing node, DistError when no node
answers, deterministic job errors surfacing as CampaignJobError only
after the batch settles, the prefix-fetch/prefix-put wire verbs, and the
lifted warm-start gate replicating one captured prefix across the ring.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.core.config import RevokerKind
from repro.dist import (
    DEFAULT_REPLICAS,
    DistError,
    DistributedExecutor,
    HashRing,
    NodeSpec,
    parse_nodes,
)
from repro.runner.cache import ResultCache, job_fingerprint
from repro.runner.campaign import Job, WorkloadSpec, execute_job
from repro.runner.pool import CampaignJobError
from repro.runner.progress import CampaignProgress
from repro.runner.serialize import dumps_result
from repro.serve.client import ServeClient
from repro.serve.protocol import decode, encode
from repro.serve.server import ServeConfig, SimulationServer
from repro.settings import MANAGED_VARS
from repro.snapshot.format import pack_checkpoint
from repro.snapshot.prefix import PrefixStore, prefix_key


@pytest.fixture(autouse=True)
def _restore_repro_env():
    """A daemon exports its snapshot/prefix dirs into os.environ before
    forking workers (pre-fork settings ship). With daemons running in
    threads of this process, that export must not leak into later tests
    — ServeConfig.__post_init__ and the pool read those vars."""
    saved = {var: os.environ.get(var) for var in MANAGED_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


# --- The hash ring ----------------------------------------------------------


class TestHashRing:
    def test_routes_deterministically(self):
        ring = HashRing(["a", "b", "c"])
        again = HashRing(["c", "a", "b"])  # order-independent
        for i in range(200):
            key = f"fingerprint-{i}"
            assert ring.route(key) == again.route(key)

    def test_spreads_keys(self):
        ring = HashRing(["a", "b"])
        owners = {ring.route(f"key-{i}") for i in range(100)}
        assert owners == {"a", "b"}

    def test_removal_moves_only_the_dead_nodes_keys(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"fingerprint-{i}" for i in range(300)]
        before = {k: ring.route(k) for k in keys}
        ring.remove("b")
        for k in keys:
            if before[k] != "b":
                assert ring.route(k) == before[k]
            else:
                assert ring.route(k) in ("a", "c")

    def test_readd_restores_exact_assignment(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"fingerprint-{i}" for i in range(100)]
        before = {k: ring.route(k) for k in keys}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.route(k) for k in keys} == before

    def test_membership_helpers(self):
        ring = HashRing(["a"])
        assert len(ring) == 1 and "a" in ring and ring.nodes == ["a"]
        ring.add("a")  # idempotent
        assert len(ring) == 1
        ring.remove("missing")  # idempotent
        assert DEFAULT_REPLICAS == 64

    def test_empty_ring_cannot_route(self):
        with pytest.raises(DistError, match="no live nodes"):
            HashRing().route("anything")

    def test_rejects_bad_replicas(self):
        with pytest.raises(DistError, match="replicas"):
            HashRing(replicas=0)


# --- Node parsing -----------------------------------------------------------


class TestParseNodes:
    def test_unix_and_tcp(self):
        specs = parse_nodes("/tmp/a.sock,host1:7341,rel.sock")
        assert specs[0].socket_path == "/tmp/a.sock"
        assert (specs[1].host, specs[1].port) == ("host1", 7341)
        assert specs[2].socket_path == "rel.sock"

    def test_iterable_input(self):
        assert len(parse_nodes(["/tmp/a.sock", "h:1"])) == 2

    @pytest.mark.parametrize("bad", ["", ",,", "justahost", "h:notaport",
                                     "h:0", "h:70000", ":7341"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DistError):
            parse_nodes(bad)

    def test_rejects_duplicates(self):
        with pytest.raises(DistError, match="duplicate"):
            parse_nodes("/tmp/a.sock,/tmp/a.sock")

    def test_executor_validates(self):
        with pytest.raises(DistError, match="max_attempts"):
            DistributedExecutor([NodeSpec.parse("/tmp/a.sock")], max_attempts=0)
        with pytest.raises(DistError, match="empty"):
            DistributedExecutor([])


# --- End-to-end against real daemons ----------------------------------------


def _spec_job(bench="hmmer", inp="retro", scale=1024, seed=1,
              kind=RevokerKind.RELOADED):
    return Job(
        WorkloadSpec("spec", {"benchmark": bench, "input": inp,
                              "scale": scale, "seed": seed}),
        kind,
    )


def _start_daemon(tmp_path, name, **overrides):
    sock = os.path.join(str(tmp_path), f"{name}.sock")
    settings = {"workers": 2, "no_cache": True}
    settings.update(overrides)
    server = SimulationServer(ServeConfig(socket_path=sock, **settings))
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    with ServeClient(socket_path=sock) as client:
        client.wait_ready(timeout=30.0)
    return server, thread, sock


def _stop_daemon(server, thread):
    server.shutdown_threadsafe()
    thread.join(timeout=30.0)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """Two cache-less daemons on unix sockets."""
    tmp = tmp_path_factory.mktemp("dist")
    s0, t0, sock0 = _start_daemon(tmp, "n0")
    s1, t1, sock1 = _start_daemon(tmp, "n1")
    yield sock0, sock1
    _stop_daemon(s0, t0)
    _stop_daemon(s1, t1)


class TestCoordinator:
    JOBS = [
        _spec_job(kind=k)
        for k in (RevokerKind.NONE, RevokerKind.CHERIVOKE,
                  RevokerKind.CORNUCOPIA, RevokerKind.RELOADED)
    ]

    def test_bit_identical_to_local(self, pair):
        ex = DistributedExecutor(parse_nodes(",".join(pair)))
        progress = CampaignProgress(len(self.JOBS))
        results = ex.run(self.JOBS, progress=progress)
        for job, remote in zip(self.JOBS, results):
            assert dumps_result(remote) == dumps_result(execute_job(job))
        assert progress.done == len(self.JOBS)
        assert ex.metrics.counter("dist.dispatched").value == len(self.JOBS)
        # Both nodes answered the post-run stats sweep.
        assert set(ex.node_stats) == set(pair)

    def test_routing_is_sticky(self, pair):
        """The same fingerprint routes to the same node, run after run —
        what makes per-node caches accumulate."""
        ex = DistributedExecutor(parse_nodes(",".join(pair)))
        ring = HashRing(list(pair))
        for job in self.JOBS:
            assert ring.route(job_fingerprint(job)) in pair
        again = HashRing(list(pair))
        for job in self.JOBS:
            assert ring.route(job_fingerprint(job)) == again.route(
                job_fingerprint(job)
            )
        del ex

    def test_batch_dedup(self, pair):
        jobs = [self.JOBS[0], self.JOBS[1], self.JOBS[0]]
        ex = DistributedExecutor(parse_nodes(",".join(pair)))
        progress = CampaignProgress(len(jobs))
        results = ex.run(jobs, progress=progress)
        assert progress.deduped == 1
        assert dumps_result(results[0]) == dumps_result(results[2])
        assert ex.metrics.counter("dist.dispatched").value == 2

    def test_local_cache_short_circuits(self, pair, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = DistributedExecutor(parse_nodes(",".join(pair)))
        ex.run(self.JOBS, cache=cache)
        again = DistributedExecutor(parse_nodes(",".join(pair)))
        progress = CampaignProgress(len(self.JOBS))
        rerun = again.run(self.JOBS, cache=cache, progress=progress)
        assert progress.cache_hits == len(self.JOBS)
        assert again.metrics.counter("dist.dispatched").value == 0
        for job, result in zip(self.JOBS, rerun):
            assert dumps_result(result) == dumps_result(execute_job(job))

    def test_dead_node_at_startup_is_routed_around(self, pair, tmp_path):
        ghost = str(tmp_path / "ghost.sock")
        ex = DistributedExecutor(parse_nodes(f"{pair[0]},{ghost}"))
        results = ex.run(self.JOBS)
        for job, remote in zip(self.JOBS, results):
            assert dumps_result(remote) == dumps_result(execute_job(job))

    def test_all_nodes_dead_raises_disterror(self, tmp_path):
        ex = DistributedExecutor(
            parse_nodes(str(tmp_path / "a.sock") + "," + str(tmp_path / "b.sock")),
            connect_timeout_s=0.5,
        )
        with pytest.raises(DistError, match="no node answered"):
            ex.run(self.JOBS)

    def test_deterministic_job_error_is_terminal(self, pair):
        """An invalid job fails once — no retries — and surfaces as
        CampaignJobError only after every other job settles."""
        bad = Job(WorkloadSpec("spec", {"benchmark": "nope", "input": "x"}),
                  RevokerKind.RELOADED)
        jobs = [self.JOBS[0], bad, self.JOBS[3]]
        ex = DistributedExecutor(parse_nodes(",".join(pair)))
        progress = CampaignProgress(len(jobs))
        with pytest.raises(CampaignJobError, match="1 of 3 jobs"):
            ex.run(jobs, progress=progress)
        assert progress.done == 3  # the whole batch settled first
        assert progress.failures == 1
        assert ex.metrics.counter("dist.terminal_failures").value == 1
        assert ex.metrics.counter("dist.retries").value == 0

    def test_ping_all(self, pair, tmp_path):
        ghost = str(tmp_path / "ghost.sock")
        ex = DistributedExecutor(parse_nodes(f"{pair[0]},{ghost}"))
        alive = ex.ping_all(timeout=1.0)
        assert alive == {pair[0]: True, ghost: False}


# --- Mid-run failover -------------------------------------------------------


class _CrashingNode:
    """A fake daemon that answers pings but hangs up on every run
    request — a deterministic stand-in for a node crashing mid-batch."""

    def __init__(self, sock_path: str) -> None:
        self.sock_path = sock_path
        self.runs_refused = 0
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(sock_path)
        self._server.listen(8)
        self._alive = True
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while self._alive:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            try:
                self._serve_one(conn)
            except (OSError, ValueError):
                pass
            finally:
                # shutdown (not just close) so the peer sees EOF at once
                # instead of blocking out its full request timeout.
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                conn.close()

    def _serve_one(self, conn: socket.socket) -> None:
        buf = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                request = decode(line)
                if request.get("verb") != "ping":
                    self.runs_refused += 1
                    return  # hang up mid-request
                conn.sendall(encode(
                    {"id": request.get("id"), "ok": True, "verb": "ping"}
                ))

    def close(self) -> None:
        self._alive = False
        try:
            self._server.close()
        except OSError:
            pass


class TestFailover:
    def test_crash_mid_run_rehashes_to_survivor(self, pair, tmp_path):
        crasher = _CrashingNode(str(tmp_path / "crash.sock"))
        try:
            # Socket paths (and so ring points) vary per run; pick jobs
            # the ring provably routes to the crasher so the failure
            # path is exercised deterministically.
            ring = HashRing([pair[0], crasher.sock_path])
            candidates = [
                _spec_job(seed=s, kind=k)
                for s in range(1, 9)
                for k in (RevokerKind.NONE, RevokerKind.RELOADED)
            ]
            owned = {True: [], False: []}
            for job in candidates:
                hits_crasher = (
                    ring.route(job_fingerprint(job)) == crasher.sock_path
                )
                owned[hits_crasher].append(job)
            assert owned[True], "no candidate routed to the crasher"
            jobs = owned[True][:3] + owned[False][:2]
            ex = DistributedExecutor(
                parse_nodes(f"{pair[0]},{crasher.sock_path}"),
                rejoin_interval_s=30.0,  # keep the crasher out once down
            )
            progress = CampaignProgress(len(jobs))
            results = ex.run(jobs, progress=progress)
            assert progress.done == len(jobs)
            assert progress.failures == 0
            for job, remote in zip(jobs, results):
                assert dumps_result(remote) == dumps_result(execute_job(job))
            # The fake answered startup pings, so it joined the ring and
            # took at least one dispatch before being marked dead.
            assert crasher.runs_refused >= 1
            assert ex.metrics.counter("dist.node_failures").value == 1
            assert ex.metrics.counter("dist.failovers").value >= 1
            assert ex.metrics.counter("dist.retries").value >= 1
        finally:
            crasher.close()


# --- Prefix transfer and the lifted warm-start gate -------------------------


class TestPrefixWire:
    def test_put_fetch_round_trip(self, tmp_path):
        server, thread, sock = _start_daemon(
            tmp_path, "pfx", prefix_dir=str(tmp_path / "store")
        )
        try:
            with ServeClient(socket_path=sock) as client:
                assert client.prefix_fetch("0" * 64) is None
                key = "ab" * 32
                blob = pack_checkpoint({"prefix_key": key}, b"\x00\xff payload")
                other = pack_checkpoint({"prefix_key": key}, b"other")
                assert client.prefix_put(key, blob) is True
                assert client.prefix_put(key, other) is False  # first wins
                assert client.prefix_fetch(key) == blob
            assert PrefixStore(tmp_path / "store").get(key) == blob
        finally:
            _stop_daemon(server, thread)

    def test_keys_cannot_escape_the_store(self, tmp_path):
        from repro.serve.client import RequestFailed

        root = tmp_path / "a" / "b" / "store"
        server, thread, sock = _start_daemon(tmp_path, "esc", prefix_dir=str(root))
        try:
            with ServeClient(socket_path=sock) as client:
                for key in ("../../../escaped", "k1", "AB" * 32):
                    with pytest.raises(RequestFailed, match="bad prefix key") as exc:
                        client.prefix_put(key, b"x")
                    assert exc.value.code == "bad-request"
                    with pytest.raises(RequestFailed, match="bad prefix key") as exc:
                        client.prefix_fetch(key)
                    assert exc.value.code == "bad-request"
                assert client.ping()  # the daemon lives on
        finally:
            _stop_daemon(server, thread)
        assert not list(tmp_path.rglob("*.ckpt"))

    def test_put_refuses_a_blob_not_captured_for_its_key(self, tmp_path):
        from repro.serve.client import RequestFailed

        root = tmp_path / "store"
        server, thread, sock = _start_daemon(tmp_path, "blob", prefix_dir=str(root))
        try:
            with ServeClient(socket_path=sock) as client:
                key = "c" * 64
                for blob in (
                    pack_checkpoint({"prefix_key": "a" * 64}, b"x"),
                    b"not a checkpoint",
                ):
                    with pytest.raises(RequestFailed, match="refusing prefix") as exc:
                        client.prefix_put(key, blob)
                    assert exc.value.code == "bad-request"
                assert client.prefix_fetch(key) is None
                assert client.ping()  # the daemon lives on
        finally:
            _stop_daemon(server, thread)
        assert PrefixStore(root).entries() == 0

    def test_daemon_without_store_rejects(self, pair):
        from repro.serve.client import RequestFailed

        with ServeClient(socket_path=pair[0]) as client:
            with pytest.raises(RequestFailed, match="no prefix store"):
                client.request("prefix-fetch", {"key": "k"})


class TestDistributedWarmStart:
    def test_one_capture_replicated_across_the_ring(self, tmp_path):
        """Exactly one node pays the warmup; the coordinator pulls the
        captured prefix and pushes it to the peer before releasing the
        group — both stores end up with the same single entry, and the
        results stay bit-identical to cold runs."""
        jobs = [
            _spec_job(scale=2048, kind=k)
            for k in (RevokerKind.CHERIVOKE, RevokerKind.CORNUCOPIA,
                      RevokerKind.RELOADED)
        ]
        cold = [dumps_result(execute_job(j)) for j in jobs]
        stores = (tmp_path / "store0", tmp_path / "store1")
        s0, t0, sock0 = _start_daemon(tmp_path, "w0", prefix_dir=str(stores[0]))
        s1, t1, sock1 = _start_daemon(tmp_path, "w1", prefix_dir=str(stores[1]))
        try:
            ex = DistributedExecutor(
                parse_nodes(f"{sock0},{sock1}"), warm_start=True
            )
            results = ex.run(jobs)
            assert [dumps_result(r) for r in results] == cold
            key = prefix_key(jobs[0])
            captured = [PrefixStore(s).get(key) is not None for s in stores]
            # The gate leader's node captured; replication reached the
            # peer unless the capture window never opened (then both
            # miss and everyone ran cold — still correct, but this
            # scale is known to capture at epoch 0).
            assert all(captured), captured
            assert ex.metrics.counter("dist.prefix_transfers").value == 1
        finally:
            _stop_daemon(s0, t0)
            _stop_daemon(s1, t1)
