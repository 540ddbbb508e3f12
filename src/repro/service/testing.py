"""Test/bench harness: run an :class:`AdvisorService` in a daemon thread.

The service is asyncio-based but the test suite and the load benchmark are
synchronous, so :class:`ServiceThread` boots the event loop in a background
thread, binds to an ephemeral port, and exposes a small synchronous
``request()`` helper built on :mod:`http.client`.  Used by the unit tests,
the service benchmark and nothing in production paths.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.service.app import AdvisorService, serve_forever

__all__ = ["ServiceThread", "ServiceReply"]


@dataclass(frozen=True)
class ServiceReply:
    """One synchronous response: status, raw body and selected headers."""

    status: int
    body: bytes
    headers: Mapping[str, str]

    def json(self) -> Any:
        """The body parsed as JSON."""
        return json.loads(self.body.decode("utf-8"))

    @property
    def tier(self) -> Optional[str]:
        return self.headers.get("x-repro-tier")

    @property
    def cache(self) -> Optional[str]:
        return self.headers.get("x-repro-cache")


class ServiceThread:
    """A live advisor service on ``127.0.0.1:<ephemeral>``, thread-hosted.

    Use as a context manager::

        with ServiceThread(create_app()) as svc:
            reply = svc.request("GET", "/healthz")
    """

    def __init__(self, service: AdvisorService) -> None:
        self.service = service
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()

        def on_ready(host: str, port: int) -> None:
            self.host = host
            self.port = port
            self._ready.set()

        try:
            await serve_forever(self.service, self.host, 0, ready=on_ready)
        except asyncio.CancelledError:
            pass

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("advisor service failed to start within 10s")
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            for task in asyncio.all_tasks(loop=loop):
                loop.call_soon_threadsafe(task.cancel)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
        *,
        raw_body: Optional[bytes] = None,
        timeout: float = 30.0,
    ) -> ServiceReply:
        """One synchronous HTTP round-trip against the live service."""
        assert self.port is not None, "service not started"
        connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            body: Optional[bytes] = raw_body
            headers: Dict[str, str] = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            raw = connection.getresponse()
            return ServiceReply(
                status=raw.status,
                body=raw.read(),
                headers={k.lower(): v for k, v in raw.getheaders()},
            )
        finally:
            connection.close()

    def wait_for_job(
        self, job_id: str, *, timeout: float = 60.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Poll ``/jobs/<id>`` until the job reaches a terminal state."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            reply = self.request("GET", f"/jobs/{job_id}")
            if reply.status != 200:
                raise RuntimeError(f"job poll failed: {reply.status} {reply.body!r}")
            snapshot = reply.json()
            if snapshot["state"] in ("done", "failed"):
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {snapshot['state']!r}")
            time.sleep(poll)

    def healthz(self) -> Dict[str, Any]:
        """Shortcut: the parsed ``/healthz`` payload."""
        return self.request("GET", "/healthz").json()
