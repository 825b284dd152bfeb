"""The serving layer: wire protocol, daemon behavior, client library.

Protocol and config tests run anywhere; the end-to-end tests fork warm
workers (runtime-registered scratch kinds only cross the fork boundary
under the ``fork`` start method, same as the pool tests) and drive a
real daemon on a Unix socket from a background thread.

The load-bearing guarantees:

- a served result is byte-identical to the same job run in-process;
- cache hits and in-flight duplicates never touch a worker;
- overload is a structured rejection, not a hang or a crash;
- worker crashes, timeouts, and deadlines kill + respawn + (where the
  fault policy says so) retry once — the daemon itself never dies;
- malformed input of every shape leaves the daemon serving.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.core.config import RevokerKind
from repro.errors import ConfigError
from repro.runner import Job, WorkloadSpec, execute_job
from repro.runner.campaign import register_workload
from repro.runner.serialize import dumps_result
from repro.serve import protocol
from repro.serve.client import (
    Overloaded,
    RequestFailed,
    ServeClient,
    ServeError,
    ServerUnavailable,
)
from repro.serve.protocol import ProtocolError
from repro.serve.server import (
    ServeConfig,
    SimulationServer,
    default_queue_bound,
    default_serve_job_timeout,
    default_serve_workers,
)
from repro.workloads.base import Workload

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="serve workers need the fork start method"
)


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        frame = protocol.encode({"verb": "ping", "id": 7})
        assert frame.endswith(b"\n")
        assert protocol.decode(frame) == {"verb": "ping", "id": 7}

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            protocol.decode(b"\xff\xfe{}\n")

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.decode(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="object"):
            protocol.decode(b"[1, 2]\n")

    def test_parse_request_splits_payload(self):
        request = protocol.parse_request(
            b'{"verb": "run", "id": "abc", "job": {"x": 1}, "deadline_s": 2}\n'
        )
        assert request.verb == "run"
        assert request.id == "abc"
        assert request.payload == {"job": {"x": 1}, "deadline_s": 2}

    @pytest.mark.parametrize(
        "line", [b"{}", b'{"verb": 5}', b'{"verb": ""}', b'{"verb": null}']
    )
    def test_parse_request_needs_string_verb(self, line):
        with pytest.raises(ProtocolError, match="verb"):
            protocol.parse_request(line)

    def test_response_shapes(self):
        ok = protocol.ok_response(3, value=1)
        assert ok == {"id": 3, "ok": True, "value": 1}
        err = protocol.error_response(3, "overloaded", "full", retry_after_s=0.5)
        assert err["ok"] is False
        assert err["error"] == {"code": "overloaded", "message": "full"}
        assert err["retry_after_s"] == 0.5


class TestServeConfig:
    def test_needs_exactly_one_endpoint(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            ServeConfig(socket_path=str(tmp_path / "s"), host="127.0.0.1")
        with pytest.raises(ConfigError, match="required"):
            ServeConfig()

    def test_rejects_bad_sizes(self, tmp_path):
        sock = str(tmp_path / "s")
        with pytest.raises(ConfigError, match="workers"):
            ServeConfig(socket_path=sock, workers=0)
        with pytest.raises(ConfigError, match="queue"):
            ServeConfig(socket_path=sock, queue_bound=0)
        with pytest.raises(ConfigError, match="timeout"):
            ServeConfig(socket_path=sock, job_timeout_s=-1.0)

    def test_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "3")
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "7")
        monkeypatch.setenv("REPRO_SERVE_JOB_TIMEOUT", "1.5")
        config = ServeConfig(socket_path=str(tmp_path / "s"))
        assert config.workers == 3
        assert config.queue_bound == 7
        assert config.job_timeout_s == 1.5

    @pytest.mark.parametrize(
        ("name", "fn", "raw"),
        [
            ("REPRO_SERVE_WORKERS", default_serve_workers, "zero"),
            ("REPRO_SERVE_WORKERS", default_serve_workers, "0"),
            ("REPRO_SERVE_QUEUE", default_queue_bound, "-3"),
            ("REPRO_SERVE_QUEUE", default_queue_bound, "many"),
            ("REPRO_SERVE_JOB_TIMEOUT", default_serve_job_timeout, "0"),
            ("REPRO_SERVE_JOB_TIMEOUT", default_serve_job_timeout, "soon"),
        ],
    )
    def test_bad_env_knobs_are_loud(self, monkeypatch, name, fn, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            fn()


class TestClientValidation:
    def test_needs_exactly_one_endpoint(self):
        with pytest.raises(ServeError):
            ServeClient()
        with pytest.raises(ServeError):
            ServeClient(socket_path="/tmp/x", host="h")
        with pytest.raises(ServeError, match="port"):
            ServeClient(host="h")

    def test_unreachable_daemon(self, tmp_path):
        client = ServeClient(
            socket_path=str(tmp_path / "nope.sock"),
            retries=1,
            retry_backoff_s=0.01,
        )
        with pytest.raises(ServerUnavailable):
            client.ping()
        with pytest.raises(ServerUnavailable):
            client.wait_ready(timeout=0.2, interval=0.05)


# --- End-to-end daemon tests ---------------------------------------------


class _Tiny(Workload):
    name = "serve-tiny"

    def run(self, ctx):
        cap = yield from ctx.malloc(64)
        yield from ctx.free(cap)
        yield 100


def _tiny(tag=0):
    return _Tiny()


def _sleepy(delay=1.0, tag=0):
    time.sleep(delay)
    return _Tiny()


def _crash_once(flag=""):
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(42)
    return _Tiny()


def _crash_always(tag=0):
    os._exit(13)


def _boom(tag=0):
    raise RuntimeError("deterministic serve boom")


_KINDS = {
    "serve-tiny": _tiny,
    "serve-sleepy": _sleepy,
    "serve-crash-once": _crash_once,
    "serve-crash-always": _crash_always,
    "serve-boom": _boom,
}


@pytest.fixture(scope="module", autouse=True)
def _scratch_kinds():
    from repro.runner import campaign

    for kind, builder in _KINDS.items():
        register_workload(kind, builder)
    yield
    for kind in _KINDS:
        campaign._BUILDERS.pop(kind, None)


def _start(tmp_path, **overrides) -> tuple[SimulationServer, threading.Thread, str]:
    """Boot a daemon on a Unix socket in a background thread and wait
    until it answers pings. Workers fork here, inheriting the scratch
    kinds registered above."""
    sock = os.path.join(str(tmp_path), "serve.sock")
    settings = {
        "workers": 2,
        "queue_bound": 8,
        "cache_dir": os.path.join(str(tmp_path), "cache"),
        "drain_timeout_s": 5.0,
    }
    settings.update(overrides)
    server = SimulationServer(ServeConfig(socket_path=sock, **settings))
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    with ServeClient(socket_path=sock) as client:
        client.wait_ready(timeout=30.0)
    return server, thread, sock


def _stop(server: SimulationServer, thread: threading.Thread) -> None:
    server.shutdown_threadsafe()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "daemon failed to drain"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One shared daemon for the happy-path tests (faulty-job tests get
    their own daemons so restart counters stay interpretable)."""
    tmp = tmp_path_factory.mktemp("serve")
    server, thread, sock = _start(tmp)
    yield server, sock
    _stop(server, thread)


def _client(sock: str, **kwargs) -> ServeClient:
    kwargs.setdefault("request_timeout", 60.0)
    return ServeClient(socket_path=sock, **kwargs)


@needs_fork
class TestVerbs:
    def test_ping(self, served):
        _, sock = served
        with _client(sock) as client:
            response = client.ping()
        assert response["ok"] is True
        assert response["protocol"] == protocol.PROTOCOL_VERSION

    def test_health(self, served):
        _, sock = served
        with _client(sock) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["workers"]["configured"] == 2
        assert health["workers"]["alive"] == 2
        assert health["queue_bound"] == 8
        assert health["uptime_s"] >= 0

    def test_list_catalog(self, served):
        _, sock = served
        with _client(sock) as client:
            catalog = client.catalog()
        assert "pgbench" in catalog["workloads"]
        assert "spec" in catalog["workload_kinds"]
        assert "serve-tiny" in catalog["workload_kinds"]
        by_name = {s["name"]: s["provides_safety"] for s in catalog["strategies"]}
        assert by_name["reloaded"] is True
        assert by_name["none"] is False

    def test_unknown_verb_keeps_connection(self, served):
        _, sock = served
        with _client(sock) as client:
            with pytest.raises(RequestFailed) as excinfo:
                client.request("frobnicate")
            assert excinfo.value.code == "unknown-verb"
            assert "ping" in excinfo.value.message
            assert client.ping()["ok"] is True  # same connection still works


@needs_fork
class TestRun:
    def test_served_result_matches_in_process(self, served):
        _, sock = served
        params = {"benchmark": "hmmer", "input": "retro", "scale": 2048}
        expected = dumps_result(
            execute_job(Job(WorkloadSpec("spec", params), RevokerKind.RELOADED))
        )
        with _client(sock) as client:
            response = client.run("spec", params, revoker="reloaded")
        assert dumps_result(response.result) == expected
        assert response.fingerprint

    def test_second_request_is_a_cache_hit(self, served):
        _, sock = served
        params = {"tag": 101}
        with _client(sock) as client:
            first = client.run("serve-tiny", params, revoker="none")
            second = client.run("serve-tiny", params, revoker="none")
            stats = client.stats()
        assert first.cached is False
        assert second.cached is True
        assert dumps_result(first.result) == dumps_result(second.result)
        assert stats["stats"]["counters"]["serve.cache_hits"] >= 1

    def test_identical_inflight_requests_collapse(self, served):
        _, sock = served
        job_params = {"delay": 0.6, "tag": 202}
        responses = {}

        def issue(name):
            with _client(sock) as client:
                responses[name] = client.run(
                    "serve-sleepy", job_params, revoker="none"
                )

        first = threading.Thread(target=issue, args=("a",))
        second = threading.Thread(target=issue, args=("b",))
        first.start()
        time.sleep(0.15)  # let "a" reach a worker before "b" arrives
        second.start()
        first.join(timeout=30)
        second.join(timeout=30)
        assert set(responses) == {"a", "b"}
        flags = {(r.cached, r.deduped) for r in responses.values()}
        # One executed fresh; the other either joined it in flight or (if
        # the leader finished first) hit the cache. Exactly one worker run.
        assert (False, False) in flags
        assert (False, True) in flags or (True, False) in flags
        assert (
            dumps_result(responses["a"].result)
            == dumps_result(responses["b"].result)
        )

    def test_invalid_jobs_are_structured_errors(self, served):
        _, sock = served
        with _client(sock) as client:
            with pytest.raises(RequestFailed) as excinfo:
                client.run("no-such-kind", {})
            assert excinfo.value.code == "invalid-job"
            with pytest.raises(RequestFailed) as excinfo:
                client.request("run", {"job": {"workload": "not-a-dict"}})
            assert excinfo.value.code == "invalid-job"
            with pytest.raises(RequestFailed) as excinfo:
                client.run("serve-tiny", {"tag": 1}, deadline_s=-2)
            assert excinfo.value.code == "bad-request"
            assert client.ping()["ok"] is True


@needs_fork
class TestBackpressure:
    def test_burst_past_bound_is_rejected_not_hung(self, tmp_path):
        server, thread, sock = _start(
            tmp_path, workers=1, queue_bound=2, no_cache=True
        )
        try:
            outcomes = []
            lock = threading.Lock()

            def issue(i):
                try:
                    with _client(sock) as client:
                        client.run(
                            "serve-sleepy", {"delay": 0.5, "tag": 300 + i},
                            revoker="none",
                        )
                    outcome = "ok"
                except Overloaded as exc:
                    assert exc.retry_after_s > 0
                    outcome = "overloaded"
                with lock:
                    outcomes.append(outcome)

            threads = [
                threading.Thread(target=issue, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == 8
            assert outcomes.count("overloaded") >= 1
            assert outcomes.count("ok") >= 1
            assert outcomes.count("ok") + outcomes.count("overloaded") == 8
            with _client(sock) as client:
                health = client.health()
                stats = client.stats()
            assert health["status"] == "ok"
            assert (
                stats["stats"]["counters"]["serve.overloaded"]
                == outcomes.count("overloaded")
            )
        finally:
            _stop(server, thread)

    def test_overloaded_client_can_retry_after(self, tmp_path):
        server, thread, sock = _start(
            tmp_path, workers=1, queue_bound=1, no_cache=True
        )
        try:
            blocker = threading.Thread(
                target=lambda: _client(sock).run(
                    "serve-sleepy", {"delay": 0.8, "tag": 400}, revoker="none"
                )
            )
            filler = threading.Thread(
                target=lambda: _client(sock).run(
                    "serve-sleepy", {"delay": 0.2, "tag": 401}, revoker="none"
                )
            )
            blocker.start()
            time.sleep(0.2)
            filler.start()
            time.sleep(0.1)
            # Queue holds the filler; the worker holds the blocker. A
            # patient client waits out the retry_after hint and lands.
            with _client(sock, retry_overloaded=True, retries=30) as client:
                response = client.run(
                    "serve-tiny", {"tag": 402}, revoker="none", timeout=30
                )
            assert response.cached is False
            blocker.join(timeout=30)
            filler.join(timeout=30)
        finally:
            _stop(server, thread)

    def test_retry_after_hint_reflects_job_timeout_under_load(self, tmp_path):
        # Wire-level: before any execution sample exists, the hint must
        # derive from the configured job timeout — not the old hardcoded
        # 0.5 s mean, which undershot badly for long jobs.
        server, thread, sock = _start(
            tmp_path, workers=1, queue_bound=1, no_cache=True,
            job_timeout_s=6.0,
        )
        try:
            blocker = threading.Thread(
                target=lambda: _client(sock).run(
                    "serve-sleepy", {"delay": 0.8, "tag": 500}, revoker="none"
                )
            )
            filler = threading.Thread(
                target=lambda: _client(sock).run(
                    "serve-sleepy", {"delay": 0.2, "tag": 501}, revoker="none"
                )
            )
            blocker.start()
            time.sleep(0.2)
            filler.start()
            time.sleep(0.1)
            with pytest.raises(Overloaded) as excinfo:
                with _client(sock) as client:
                    client.run("serve-tiny", {"tag": 502}, revoker="none")
            # Backlog 2 (one executing, one queued) x 3 s cold-start mean
            # (half the 6 s timeout) over 1 live worker. The old fallback
            # would have hinted 1.0 s.
            assert excinfo.value.retry_after_s >= 3.0
            blocker.join(timeout=30)
            filler.join(timeout=30)
        finally:
            _stop(server, thread)


@needs_fork
class TestFaultPolicy:
    def test_crash_once_is_retried_on_fresh_worker(self, tmp_path):
        server, thread, sock = _start(tmp_path, workers=1)
        try:
            flag = str(tmp_path / "crashed-once")
            with _client(sock) as client:
                response = client.run(
                    "serve-crash-once", {"flag": flag}, revoker="none"
                )
                stats = client.stats()
                health = client.health()
            assert response.result.wall_cycles > 0
            counters = stats["stats"]["counters"]
            assert counters["serve.retries"] == 1
            assert counters["serve.worker_crashes"] == 1
            assert counters["serve.worker_restarts"] >= 1
            assert health["workers"]["alive"] == 1
        finally:
            _stop(server, thread)

    def test_persistent_crash_fails_cleanly_after_retry(self, tmp_path):
        server, thread, sock = _start(tmp_path, workers=1)
        try:
            with _client(sock) as client:
                with pytest.raises(RequestFailed, match="failed twice") as excinfo:
                    client.run("serve-crash-always", {"tag": 1}, revoker="none")
                assert excinfo.value.code == "job-failed"
                # The daemon and its (respawned) worker live on.
                assert client.health()["workers"]["alive"] == 1
                follow_up = client.run("serve-tiny", {"tag": 500}, revoker="none")
            assert follow_up.result.wall_cycles > 0
        finally:
            _stop(server, thread)

    def test_deterministic_exception_is_not_retried(self, tmp_path):
        server, thread, sock = _start(tmp_path, workers=1)
        try:
            with _client(sock) as client:
                with pytest.raises(RequestFailed, match="boom") as excinfo:
                    client.run("serve-boom", {"tag": 1}, revoker="none")
                stats = client.stats()
            assert excinfo.value.code == "job-failed"
            counters = stats["stats"]["counters"]
            assert counters.get("serve.retries", 0) == 0
            assert counters["serve.job_failures"] == 1
        finally:
            _stop(server, thread)

    def test_deadline_kills_job_and_reclaims_worker(self, tmp_path):
        server, thread, sock = _start(tmp_path, workers=1, no_cache=True)
        try:
            began = time.monotonic()
            with _client(sock) as client:
                with pytest.raises(RequestFailed) as excinfo:
                    client.run(
                        "serve-sleepy", {"delay": 30.0, "tag": 600},
                        revoker="none", deadline_s=0.4,
                    )
                assert excinfo.value.code == "deadline"
                assert time.monotonic() - began < 10  # not 30s
                follow_up = client.run("serve-tiny", {"tag": 601}, revoker="none")
                stats = client.stats()
            assert follow_up.result.wall_cycles > 0
            counters = stats["stats"]["counters"]
            assert counters["serve.deadline_misses"] == 1
            assert counters.get("serve.retries", 0) == 0  # deadlines never retry
        finally:
            _stop(server, thread)

    def test_job_timeout_knob_retries_once(self, tmp_path):
        server, thread, sock = _start(
            tmp_path, workers=1, job_timeout_s=0.3, no_cache=True
        )
        try:
            with _client(sock) as client:
                with pytest.raises(RequestFailed, match="failed twice") as excinfo:
                    client.run(
                        "serve-sleepy", {"delay": 30.0, "tag": 700}, revoker="none"
                    )
                stats = client.stats()
            assert excinfo.value.code == "job-failed"
            counters = stats["stats"]["counters"]
            assert counters["serve.worker_timeouts"] == 2
            assert counters["serve.retries"] == 1
        finally:
            _stop(server, thread)


@needs_fork
class TestWireRobustness:
    """Satellite: hostile/broken input must never take the daemon down."""

    def _raw(self, sock_path: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(sock_path)
        return sock

    def test_malformed_json_then_valid_request(self, served):
        _, sock_path = served
        with self._raw(sock_path) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"{this is not json\n")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            sock.sendall(b'{"verb": "ping", "id": 1}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is True

    def test_oversized_line_answers_then_closes(self, tmp_path):
        server, thread, sock_path = _start(tmp_path, max_line_bytes=1024)
        try:
            with self._raw(sock_path) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"verb": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "oversized"
                assert reader.readline() == b""  # connection closed
            # The daemon itself is fine.
            with _client(sock_path) as client:
                assert client.ping()["ok"] is True
        finally:
            _stop(server, thread)

    def test_disconnect_mid_request_leaves_daemon_alive(self, served):
        _, sock_path = served
        with self._raw(sock_path) as sock:
            sock.sendall(b'{"verb": "ping"')  # no newline, then vanish
        time.sleep(0.1)
        with _client(sock_path) as client:
            assert client.ping()["ok"] is True

    def test_disconnect_while_job_runs_leaves_daemon_alive(self, served):
        _, sock_path = served
        with self._raw(sock_path) as sock:
            frame = protocol.encode({
                "verb": "run",
                "job": {
                    "workload": {
                        "kind": "serve-sleepy",
                        "params": {"delay": 0.4, "tag": 800},
                    },
                    "revoker": "none",
                },
            })
            sock.sendall(frame)
        # Client gone before the answer; the daemon writes into the void
        # and shrugs.
        time.sleep(0.8)
        with _client(sock_path) as client:
            assert client.health()["status"] == "ok"

    def test_blank_lines_are_ignored(self, served):
        _, sock_path = served
        with self._raw(sock_path) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\n\n" + protocol.encode({"verb": "ping", "id": 9}))
            response = json.loads(reader.readline())
            assert response["id"] == 9
            assert response["ok"] is True


@needs_fork
class TestLifecycle:
    def test_shutdown_verb_drains_and_exits(self, tmp_path):
        server, thread, sock = _start(tmp_path)
        with _client(sock) as client:
            response = client.shutdown()
        assert response["draining"] is True
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert not os.path.exists(sock)  # socket unlinked on exit

    def test_run_during_drain_is_rejected(self, tmp_path):
        server, thread, sock = _start(tmp_path, drain_timeout_s=2.0, no_cache=True)
        holder = threading.Thread(
            target=lambda: _client(sock).run(
                "serve-sleepy", {"delay": 1.0, "tag": 900}, revoker="none"
            )
        )
        holder.start()
        time.sleep(0.3)
        with _client(sock) as client:
            client.shutdown()
            with pytest.raises(RequestFailed) as excinfo:
                client.run("serve-tiny", {"tag": 901}, revoker="none")
            assert excinfo.value.code == "shutting-down"
        holder.join(timeout=30)  # the in-flight job still completed
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_stats_derivations(self, tmp_path):
        server, thread, sock = _start(tmp_path)
        try:
            with _client(sock) as client:
                client.run("serve-tiny", {"tag": 1000}, revoker="none")
                client.run("serve-tiny", {"tag": 1000}, revoker="none")
                stats = client.stats()
            derived = stats["derived"]
            assert derived["cache_hit_rate"] == pytest.approx(0.5)
            assert derived["service_p50_us"] is not None
            assert derived["service_p99_us"] >= derived["service_p50_us"]
        finally:
            _stop(server, thread)


class TestRetryAfterHint:
    """Unit coverage for the retry_after_s computation: the cold-start
    fallback derives from the configured job timeout, and an empty or
    respawning pool can never zero the divisor."""

    def _server(self, tmp_path, **overrides):
        settings = {"workers": 2, "queue_bound": 4}
        settings.update(overrides)
        server = SimulationServer(ServeConfig(
            socket_path=os.path.join(str(tmp_path), "unused.sock"),
            **settings,
        ))

        class _Queue:
            def qsize(self):
                return 3

        server._queue = _Queue()
        server._executing = 1
        return server

    def test_cold_start_derives_from_job_timeout(self, tmp_path):
        server = self._server(tmp_path, job_timeout_s=4.0)
        server.pool = None
        # mean 2 s (half the timeout) x backlog 4, worker floor of 1.
        assert server._retry_after() == pytest.approx(8.0)

    def test_cold_start_without_timeout_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_JOB_TIMEOUT", raising=False)
        server = self._server(tmp_path)
        server.pool = None
        assert server._retry_after() == pytest.approx(0.5 * 4)

    def test_dead_pool_does_not_zero_the_divisor(self, tmp_path):
        # During drain (or mid-respawn) every worker can be gone; the
        # old len(self.pool) division assumed a healthy pool.
        server = self._server(tmp_path, job_timeout_s=2.0)

        class _DeadPool:
            alive = 0

            def __len__(self):
                return 2

        server.pool = _DeadPool()
        assert server._retry_after() == pytest.approx(4.0)

    def test_live_workers_spread_the_backlog(self, tmp_path):
        server = self._server(tmp_path, job_timeout_s=2.0)

        class _Pool:
            alive = 2

            def __len__(self):
                return 2

        server.pool = _Pool()
        assert server._retry_after() == pytest.approx(2.0)


class TestLoadGenerator:
    def test_autostart_closes_its_daemon_log(self, tmp_path, monkeypatch):
        """Regression: ``_start_daemon`` handed the log file to Popen and
        never closed the parent's handle, so every ``serve bench
        --autostart`` run leaked it (a ResourceWarning)."""
        import warnings

        from repro.serve import bench

        handles = []
        monkeypatch.setattr(
            bench.subprocess, "Popen",
            lambda argv, **kwargs: handles.append(kwargs["stdout"]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            bench._start_daemon(
                str(tmp_path / "serve.sock"), 1, 1, tmp_path / "daemon.log"
            )
        (log,) = handles
        assert log.closed

    def test_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        # ``--autostart`` polls the daemon while it starts up: every
        # refused connect used to leave an unclosed socket behind.
        created = []

        class Tracked(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(socket, "socket", Tracked)
        client = ServeClient(socket_path=str(tmp_path / "absent.sock"), retries=0)
        with pytest.raises(ServerUnavailable):
            client.ping()
        assert created and all(s.fileno() == -1 for s in created)
