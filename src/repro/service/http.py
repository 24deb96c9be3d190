"""Minimal asyncio HTTP listener for live telemetry scrapes.

One tiny purpose-built server (no third-party web framework, matching
the repo's zero-dependency rule) exposing three read-only endpoints
next to the RPC socket:

* ``GET /metrics`` — the obs registry in Prometheus exposition format
  (``repro.obs.export.to_prometheus_text``), with the service's live
  gauges (queue depth, snapshot age, slots in use) refreshed first;
* ``GET /healthz`` — JSON health: ``ok`` / ``degraded`` / ``draining``
  with HTTP 200 for the servable states and 503 once the server drains,
  so load balancers can react without parsing;
* ``GET /stats`` — the ``stats`` op as JSON for humans with ``curl``.

Only GET is implemented; anything else earns a 405, unknown paths a
404.  Connections are one-shot (``Connection: close``) — scrapers poll
at second granularity, keep-alive would buy nothing.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import logging
from typing import Any, Optional, Tuple

from .conn import close_writer

__all__ = ["MetricsEndpoint"]

logger = logging.getLogger("repro.service")

_MAX_REQUEST_BYTES = 16384


class MetricsEndpoint:
    """Serve ``/metrics``, ``/healthz``, ``/stats`` for one service.

    The fronted object needs ``scrape_text()``, ``health()`` and
    ``stats()``; each may be synchronous (the single-process
    :class:`~repro.service.server.AdmissionService`) or a coroutine
    function (the cluster front door, whose aggregation awaits the
    worker links) — awaitable results are awaited transparently.
    """

    def __init__(
        self,
        service: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Bind the listener; returns the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self._requested_port,
            limit=_MAX_REQUEST_BYTES,
        )
        logger.info(
            "telemetry endpoint listening on http://%s:%d",
            self.host,
            self.port,
        )
        return self.port

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -------------------------------------------------------------- #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            # Drain headers; the request line is all we route on.
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            if len(parts) < 2:
                status, ctype, body = 400, "text/plain", "bad request\n"
            elif parts[0] != "GET":
                status, ctype, body = (
                    405,
                    "text/plain",
                    "only GET is supported\n",
                )
            else:
                status, ctype, body = await self._route(parts[1])
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, OSError, asyncio.LimitOverrunError):
            pass
        finally:
            close_writer(writer)

    @staticmethod
    async def _call(method: Any) -> Any:
        result = method()
        if inspect.isawaitable(result):
            result = await result
        return result

    async def _route(self, path: str) -> Tuple[int, str, str]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4",
                await self._call(self.service.scrape_text),
            )
        if path == "/healthz":
            obj = await self._call(self.service.health)
            # 503 once draining: load balancers stop routing unparsed.
            status = 503 if obj["status"] == "draining" else 200
            return status, "application/json", json.dumps(obj, sort_keys=True) + "\n"
        if path == "/stats":
            stats = await self._call(self.service.stats)
            return (
                200,
                "application/json",
                json.dumps(stats, sort_keys=True) + "\n",
            )
        return (
            404,
            "text/plain",
            "unknown path (try /metrics, /healthz, /stats)\n",
        )


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}
