"""Blocking client for the simulation service.

One :class:`ServeClient` wraps one socket connection (Unix or TCP) and
issues one request at a time; open several clients (the load generator
does, one per thread) to keep many requests in flight. Connection-level
failures — refused, reset, broken pipe — are retried with backoff up to
``retries`` times; *response timeouts are not retried* (the job keeps
running server-side; the caller decides), and ``overloaded`` rejections
are surfaced as :class:`Overloaded` unless ``retry_overloaded`` asks the
client to honor the server's ``retry_after_s`` hint.

Typical use::

    with ServeClient(socket_path="/tmp/repro.sock") as client:
        client.wait_ready(timeout=10.0)
        response = client.run("spec", {"benchmark": "hmmer", "input": "retro"},
                              revoker="reloaded")
        print(response.result.summary(), response.cached)
"""

from __future__ import annotations

import itertools
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.metrics import RunResult
from repro.errors import ReproError
from repro.runner.serialize import result_from_dict
from repro.serve.protocol import ProtocolError, decode, encode


class ServeError(ReproError):
    """Base class for client-side service errors."""


class ServerUnavailable(ServeError):
    """Could not connect (after retries) or the daemon closed on us."""


class ServeTimeout(ServeError):
    """No response within the request timeout (the job may still be
    running server-side; the connection is closed to resynchronize)."""


class RequestFailed(ServeError):
    """The daemon answered with a structured error response."""

    def __init__(self, code: str, message: str, response: dict[str, Any]):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.response = response


class Overloaded(RequestFailed):
    """Admission control rejected the request; honor ``retry_after_s``."""

    @property
    def retry_after_s(self) -> float:
        return float(self.response.get("retry_after_s", 0.1))


@dataclass
class RunResponse:
    """A decoded ``run`` response."""

    result: RunResult
    cached: bool
    deduped: bool
    fingerprint: str
    service_s: float


class ServeClient:
    """A blocking connection to the serving daemon."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 120.0,
        retries: int = 2,
        retry_backoff_s: float = 0.1,
        retry_overloaded: bool = False,
    ) -> None:
        if bool(socket_path) == bool(host):
            raise ServeError("give a unix socket path or a host, not both/neither")
        if host and port is None:
            raise ServeError("a TCP client needs a port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_overloaded = retry_overloaded
        self._sock: socket.socket | None = None
        self._file: Any = None
        self._ids = itertools.count(1)

    # --- Connection management -------------------------------------------

    def _connect(self) -> None:
        if self.socket_path:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            target: Any = self.socket_path
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            target = (self.host, self.port)
        try:
            sock.settimeout(self.connect_timeout)
            sock.connect(target)
        except OSError:
            sock.close()  # a daemon still starting up is polled for
            raise
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # --- Requests ---------------------------------------------------------

    def request(
        self,
        verb: str,
        payload: Mapping[str, Any] | None = None,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Issue one request; returns the ``ok`` response dict or raises.

        Connection failures reconnect and retry (requests are idempotent:
        runs are content-addressed and collapse server-side); timeouts
        and structured errors raise without retrying.
        """
        request_id = next(self._ids)
        frame = encode({"id": request_id, "verb": verb, **(payload or {})})
        timeout = self.request_timeout if timeout is None else timeout
        connect_attempts = 0
        overload_attempts = 0
        last_error: Exception | None = None
        while True:
            try:
                if self._sock is None:
                    self._connect()
                assert self._sock is not None
                self._sock.settimeout(timeout)
                self._sock.sendall(frame)
                line = self._file.readline()
                if not line:
                    # Daemon closed the connection (drain, oversized...).
                    raise ConnectionResetError("daemon closed the connection")
            except socket.timeout:
                # The response will still arrive eventually and desync
                # the stream: drop the connection instead of retrying.
                self.close()
                raise ServeTimeout(
                    f"no response to {verb!r} within {timeout}s"
                ) from None
            except (OSError, ValueError) as exc:
                self.close()
                last_error = exc
                connect_attempts += 1
                if connect_attempts > self.retries:
                    raise ServerUnavailable(
                        f"cannot reach daemon after {connect_attempts} "
                        f"attempts: {last_error}"
                    ) from exc
                time.sleep(self.retry_backoff_s * (2 ** (connect_attempts - 1)))
                continue
            try:
                response = decode(line)
            except ProtocolError as exc:
                self.close()
                raise ServeError(f"bad response frame: {exc}") from exc
            if response.get("id") not in (request_id, None):
                self.close()
                raise ServeError(
                    f"response id {response.get('id')!r} != request {request_id}"
                )
            if response.get("ok"):
                return response
            error = response.get("error") or {}
            code = str(error.get("code", "unknown"))
            message = str(error.get("message", "unknown error"))
            if code == "overloaded":
                exc = Overloaded(code, message, response)
                if self.retry_overloaded and overload_attempts < self.retries:
                    overload_attempts += 1
                    time.sleep(exc.retry_after_s)
                    continue
                raise exc
            raise RequestFailed(code, message, response)

    # --- Verb helpers -----------------------------------------------------

    def ping(self, timeout: float | None = None) -> dict[str, Any]:
        return self.request("ping", timeout=timeout or 5.0)

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll until the daemon answers a ping (daemon start-up)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.ping(timeout=min(1.0, timeout))
                return
            except (ServeError, OSError):
                if time.monotonic() >= deadline:
                    raise ServerUnavailable(
                        f"daemon not ready within {timeout}s"
                    ) from None
                self.close()
                time.sleep(interval)

    def run(
        self,
        kind: str,
        params: Mapping[str, Any] | None = None,
        revoker: str = "reloaded",
        config: Mapping[str, Any] | None = None,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> RunResponse:
        """Run one simulation job and decode the result."""
        job = {
            "workload": {"kind": kind, "params": dict(params or {})},
            "revoker": revoker,
            "config": dict(config or {}),
        }
        return self.run_job_dict(job, deadline_s=deadline_s, timeout=timeout)

    def run_job_dict(
        self,
        job: Mapping[str, Any],
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> RunResponse:
        payload: dict[str, Any] = {"job": dict(job)}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        response = self.request("run", payload, timeout=timeout)
        return RunResponse(
            result=result_from_dict(response["result"]),
            cached=bool(response.get("cached")),
            deduped=bool(response.get("deduped")),
            fingerprint=str(response.get("fingerprint", "")),
            service_s=float(response.get("service_s", 0.0)),
        )

    def prefix_fetch(
        self, key: str, timeout: float | None = None
    ) -> bytes | None:
        """Pull one warm-start prefix blob from the daemon's store.

        Returns None on a miss (the ``not-found`` error code) so the
        dist coordinator can degrade to a cold run without exception
        plumbing; every other failure raises as usual.
        """
        import base64

        try:
            response = self.request(
                "prefix-fetch", {"key": key}, timeout=timeout or 30.0
            )
        except RequestFailed as exc:
            if exc.code == "not-found":
                return None
            raise
        return base64.b64decode(response["blob"])

    def prefix_put(
        self, key: str, blob: bytes, timeout: float | None = None
    ) -> bool:
        """Push one prefix blob into the daemon's store (first-writer-
        wins). Returns True iff this call stored it."""
        import base64

        response = self.request(
            "prefix-put",
            {"key": key, "blob": base64.b64encode(blob).decode("ascii")},
            timeout=timeout or 30.0,
        )
        return bool(response.get("stored"))

    def health(self) -> dict[str, Any]:
        return self.request("health", timeout=5.0)

    def stats(self) -> dict[str, Any]:
        return self.request("stats", timeout=5.0)

    def catalog(self) -> dict[str, Any]:
        return self.request("list", timeout=5.0)

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown", timeout=5.0)
