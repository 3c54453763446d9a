"""Asyncio client for the gateway's HTTP/JSON protocol.

The client the tests and the layered benchmark's ``serve_churn`` workload
drive: one keep-alive connection per :class:`GatewayClient`, explicit JSON
in/out, no retry magic.  A :class:`GatewayError` carries the HTTP status so
callers can count 429s (admission control) and 503s (drain) without string
matching.

Request bodies are encoded through the same typed
:class:`~repro.api.schema.PlanRequest` the server parses with — the client
cannot drift from the wire schema — and :meth:`GatewayClient.submit_typed`
re-types response documents as :class:`~repro.api.schema.PlanResponse`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.api.schema import PlanRequest, PlanResponse
from repro.lang import matrix_expr as mx

from repro.server.protocol import (
    format_http_request,
    read_http_response,
)


class GatewayError(RuntimeError):
    """A non-2xx gateway response."""

    def __init__(self, status: int, payload: dict):
        super().__init__(f"gateway answered {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class GatewayClient:
    """One keep-alive connection to a gateway.

    Usage::

        client = GatewayClient("127.0.0.1", gateway.port)
        await client.connect()
        response = await client.plan(expr, name="P1.1")
        await client.close()
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "GatewayClient":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "GatewayClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ requests
    async def request(self, method: str, path: str, body: Optional[dict] = None):
        """One raw round trip; returns ``(status, payload)``."""
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        encoded = json.dumps(body).encode("utf-8") if body is not None else b""
        self._writer.write(format_http_request(method, path, encoded))
        await self._writer.drain()
        status, headers, raw = await read_http_response(self._reader)
        content_type = headers.get("content-type", "")
        if content_type.startswith("application/json"):
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        else:
            payload = {"text": raw.decode("utf-8", "replace")}
        if headers.get("connection", "keep-alive").lower() == "close":
            await self.close()
        return status, payload

    async def submit(
        self,
        expression: mx.Expr,
        name: str = "",
        backend: Optional[str] = None,
        execute: bool = False,
        raise_on_error: bool = True,
        workspace: Optional[str] = None,
    ) -> dict:
        """POST one expression; returns the response payload.

        ``execute=False`` goes to ``/v1/plan``, ``execute=True`` to
        ``/v1/pipeline``.  ``workspace`` routes the request to that named
        tenant workspace (the gateway answers ``404`` for unknown names);
        ``None`` targets the gateway's default workspace.  Non-2xx answers
        raise :class:`GatewayError` unless ``raise_on_error=False`` (then
        the payload gains a ``"status"`` key and is returned as-is).
        """
        body = PlanRequest(
            expression=expression,
            name=name,
            backend=backend,
            execute=execute,
            workspace=workspace,
        ).to_json()
        path = "/v1/pipeline" if execute else "/v1/plan"
        status, payload = await self.request("POST", path, body)
        if status >= 300 and raise_on_error:
            raise GatewayError(status, payload)
        if status >= 300:
            payload = dict(payload, status=status)
        return payload

    async def submit_typed(
        self,
        expression: mx.Expr,
        name: str = "",
        backend: Optional[str] = None,
        execute: bool = False,
        workspace: Optional[str] = None,
    ) -> PlanResponse:
        """Like :meth:`submit`, but re-typed as a
        :class:`~repro.api.schema.PlanResponse` (2xx only; errors raise)."""
        payload = await self.submit(
            expression, name=name, backend=backend, execute=execute, workspace=workspace
        )
        return PlanResponse.from_json(payload)

    async def plan(self, expression: mx.Expr, name: str = "", **kwargs) -> dict:
        return await self.submit(expression, name=name, execute=False, **kwargs)

    async def execute(self, expression: mx.Expr, name: str = "", **kwargs) -> dict:
        return await self.submit(expression, name=name, execute=True, **kwargs)

    async def workspaces(self, name: Optional[str] = None) -> dict:
        """``GET /v1/workspaces`` (or ``/v1/workspaces/<name>``).

        The listing carries the default workspace name and one description
        per registered workspace; describing an unknown name raises
        :class:`GatewayError` with status 404.
        """
        path = "/v1/workspaces" if name is None else f"/v1/workspaces/{name}"
        status, payload = await self.request("GET", path)
        if status != 200:
            raise GatewayError(status, payload)
        return payload

    async def metrics_text(self) -> str:
        status, payload = await self.request("GET", "/metrics")
        if status != 200:
            raise GatewayError(status, payload)
        return payload["text"]

    async def health(self) -> dict:
        status, payload = await self.request("GET", "/healthz")
        payload = dict(payload, status_code=status)
        return payload


def parse_prometheus(text: str) -> dict:
    """Parse a Prometheus text exposition into ``{series_name: value}``.

    Bucketed series keep their label string (``name_bucket{le="1"}``), which
    is all the tests and the layered benchmark need.
    """
    values: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


__all__ = ["GatewayClient", "GatewayError", "parse_prometheus"]
