"""The typed wire schema: one source of truth for requests and responses.

Everything that crosses the gateway's wire is defined *here, once*, as
typed dataclasses plus an expression codec; both sides of the wire are
generated from these definitions — :mod:`repro.server.protocol` (the
server-side parse/serialize entry points) and
:class:`repro.server.client.GatewayClient` (the client-side encoder) are
thin delegates, so a field added to :class:`PlanRequest` or
:class:`PlanResponse` exists on both sides by construction and the two can
never drift apart.

Three layers live here:

* an **expression codec** — :func:`expr_to_json` / :func:`expr_from_json`
  serialize any :class:`repro.lang.matrix_expr.Expr` tree as plain JSON,
  with the op names of :func:`repro.lang.matrix_expr.op_registry` as tags.
  The encoding mirrors the AST exactly (``op`` / typed ``payload`` /
  ``children``), so a round trip preserves structural equality *and* the
  blake2b fingerprint — the property every cache layer keys on.  Payload
  items carry an explicit type tag because JSON alone cannot distinguish
  ``2`` from ``2.0``, and the fingerprint hashes ``repr(item)`` with its
  type name;
* a **request schema** — :class:`PlanRequest`, the typed body of the POST
  endpoints, convertible to/from JSON and to/from the service layer's
  :class:`~repro.service.service.ServiceRequest`;
* a **response schema** — :class:`PlanResponse` (with :class:`PhaseTimings`),
  the typed ``200``/``422`` response document, built from a
  :class:`~repro.service.service.ServiceResult` and convertible to/from
  JSON, including the size-capped :func:`value_to_json` rendering.

Malformed input raises :class:`ProtocolError` everywhere, which the
gateway maps to ``400``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, List, Optional, Tuple

from repro.exceptions import TypeMismatchError
from repro.lang import matrix_expr as mx
from repro.lang.matrix_expr import op_registry
from repro.service.service import ServiceRequest, ServiceResult

#: Protect the decoder against hostile or runaway payloads: an expression
#: tree larger than this is rejected before any node is built.
MAX_EXPR_NODES = 50_000

#: Dense values up to this many elements are inlined in responses; larger
#: ones are summarized by shape/nnz so a huge matrix never floods a socket.
MAX_INLINE_VALUE_ELEMENTS = 64


class ProtocolError(ValueError):
    """A malformed request (bad JSON, unknown op, framing violation)."""


# ---------------------------------------------------------------------------
# Expression codec
# ---------------------------------------------------------------------------


_PAYLOAD_TYPES = {"int": int, "float": float, "str": str}


def _payload_to_json(payload: Tuple) -> List[dict]:
    items = []
    for item in payload:
        type_name = type(item).__name__
        if type_name not in _PAYLOAD_TYPES:
            raise ProtocolError(f"unserializable payload item {item!r}")
        items.append({"t": type_name, "v": item})
    return items


def _payload_from_json(items: Any) -> Tuple:
    if not isinstance(items, list):
        raise ProtocolError("payload must be a list")
    payload = []
    for item in items:
        if not isinstance(item, dict) or "t" not in item or "v" not in item:
            raise ProtocolError(f"malformed payload item {item!r}")
        caster = _PAYLOAD_TYPES.get(item["t"])
        if caster is None:
            raise ProtocolError(f"unknown payload type {item['t']!r}")
        try:
            payload.append(caster(item["v"]))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad payload value {item!r}") from exc
    return tuple(payload)


def expr_to_json(expr: mx.Expr) -> dict:
    """Encode an expression tree as a JSON-ready dict."""
    return {
        "op": expr.op,
        "payload": _payload_to_json(expr.payload),
        "children": [expr_to_json(child) for child in expr.children],
    }


def expr_from_json(obj: Any, max_nodes: int = MAX_EXPR_NODES) -> mx.Expr:
    """Decode an expression tree, validating ops, arity, payloads and size.

    Nodes are rebuilt through the real subclass constructors: every
    concrete ``Expr`` class takes exactly ``(*children, *payload)`` in
    order, so the constructors' own invariants (non-empty reference names,
    positive identity sizes, non-negative exponents, …) run on every
    decoded node — a leaf smuggling children or an integer where a name
    belongs is rejected here, not as a confusing planner error later.  The
    type tags restored the exact payload types, so fingerprints survive
    the round trip.
    """
    registry = op_registry()
    budget = [max_nodes]

    def build(node: Any) -> mx.Expr:
        if not isinstance(node, dict):
            raise ProtocolError(f"expression node must be an object, got {node!r}")
        budget[0] -= 1
        if budget[0] < 0:
            raise ProtocolError(f"expression exceeds {max_nodes} nodes")
        op = node.get("op")
        cls = registry.get(op) if isinstance(op, str) else None
        if cls is None:
            raise ProtocolError(f"unknown expression op {op!r}")
        children = node.get("children", [])
        if not isinstance(children, list):
            raise ProtocolError("children must be a list")
        if len(children) != cls.arity:
            raise ProtocolError(
                f"{op!r} expects {cls.arity} children, got {len(children)}"
            )
        built = tuple(build(child) for child in children)
        payload = _payload_from_json(node.get("payload", []))
        try:
            return cls(*built, *payload)
        except (TypeMismatchError, TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid {op!r} node: {exc}") from exc

    return build(obj)


# ---------------------------------------------------------------------------
# Value rendering
# ---------------------------------------------------------------------------


def value_to_json(value: Any) -> Optional[dict]:
    """Size-capped JSON rendering of an execution value.

    Scalars and small dense matrices are inlined; anything bigger is
    summarized by shape (and nnz for sparse values) — the caller asked for a
    result, not for megabytes of matrix over a JSON socket.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return {"kind": "scalar", "data": float(value)}
    if hasattr(value, "tocsr"):  # scipy sparse
        return {
            "kind": "sparse",
            "shape": [int(dim) for dim in value.shape],
            "nnz": int(value.nnz),
        }
    if hasattr(value, "shape"):  # numpy array
        shape = [int(dim) for dim in value.shape]
        size = 1
        for dim in shape:
            size *= dim
        summary = {"kind": "dense", "shape": shape}
        if size <= MAX_INLINE_VALUE_ELEMENTS:
            summary["data"] = value.tolist()
        return summary
    return {"kind": "opaque", "repr": repr(value)[:200]}


def _finite_or_none(value: float) -> Optional[float]:
    """NaN/inf costs (unplannable requests) must not leak into the JSON:
    ``json.dumps`` would emit the spec-invalid ``NaN`` literal that
    standards-strict consumers (``JSON.parse``, ``jq``) refuse to parse."""
    return float(value) if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# Typed request schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanRequest:
    """The typed body of ``POST /v1/plan`` and ``POST /v1/pipeline``.

    Field defaults double as wire defaults: a field at its default is
    omitted from the encoded body, and an absent key decodes to the
    default (``execute`` to the endpoint's own default).
    """

    expression: mx.Expr
    name: str = ""
    backend: Optional[str] = None
    execute: bool = True
    #: Tenant-workspace routing: the gateway dispatches the request to this
    #: named workspace (404 when unknown); ``None`` targets the default.
    workspace: Optional[str] = None

    def to_json(self) -> dict:
        """Encode as a request body (defaults omitted)."""
        body: dict = {"expression": expr_to_json(self.expression)}
        if self.name:
            body["name"] = self.name
        if self.backend is not None:
            body["backend"] = self.backend
        if not self.execute:
            body["execute"] = False
        if self.workspace is not None:
            body["workspace"] = self.workspace
        return body

    @classmethod
    def from_json(cls, body: Any, execute_default: bool = True) -> "PlanRequest":
        """Decode and validate one request body (raises :class:`ProtocolError`)."""
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        if "expression" not in body:
            raise ProtocolError("request body needs an 'expression' field")
        expression = expr_from_json(body["expression"])
        name = body.get("name", "")
        if not isinstance(name, str):
            raise ProtocolError("'name' must be a string")
        backend = body.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ProtocolError("'backend' must be a string")
        execute = body.get("execute", execute_default)
        if not isinstance(execute, bool):
            raise ProtocolError("'execute' must be a boolean")
        workspace = body.get("workspace")
        if workspace is not None and (not isinstance(workspace, str) or not workspace):
            raise ProtocolError("'workspace' must be a non-empty string")
        return cls(
            expression=expression,
            name=name,
            backend=backend,
            execute=execute,
            workspace=workspace,
        )

    def to_service_request(self) -> ServiceRequest:
        return ServiceRequest(
            expression=self.expression,
            name=self.name,
            backend=self.backend,
            execute=self.execute,
            workspace=self.workspace,
        )

    @classmethod
    def from_service_request(cls, request: ServiceRequest) -> "PlanRequest":
        return cls(
            expression=request.expression,
            name=request.name,
            backend=request.backend,
            execute=request.execute,
            workspace=request.workspace,
        )


# ---------------------------------------------------------------------------
# Typed response schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseTimings:
    """Per-phase wall-clock seconds of one served request."""

    queue_seconds: float = 0.0
    plan_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0

    def to_json(self) -> dict:
        return {f.name: float(getattr(self, f.name)) for f in dataclass_fields(self)}

    @classmethod
    def from_json(cls, payload: Any) -> "PhaseTimings":
        if not isinstance(payload, dict):
            raise ProtocolError(f"'timings' must be an object, got {payload!r}")
        values = {}
        for spec in dataclass_fields(cls):
            raw = payload.get(spec.name, 0.0)
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise ProtocolError(f"timings.{spec.name} must be a number, got {raw!r}")
            values[spec.name] = float(raw)
        return cls(**values)


@dataclass(frozen=True)
class PlanResponse:
    """The typed response document of the POST endpoints.

    Built from a :class:`~repro.service.service.ServiceResult` on the
    server (:meth:`from_result`) and re-typed from JSON on the client
    (:meth:`from_json`); :meth:`to_json` keys are exactly the field names,
    so the wire format cannot drift from this definition.
    """

    name: str
    fingerprint: str
    plan: str
    changed: bool
    cache_hit: bool
    original_cost: Optional[float]
    best_cost: Optional[float]
    used_views: Tuple[str, ...]
    backend: Optional[str]
    value: Optional[dict]
    failures: Tuple[Tuple[str, str], ...]
    timings: PhaseTimings

    @property
    def ok(self) -> bool:
        """True unless planning or every candidate backend failed.

        Mirrors :attr:`repro.service.service.ServiceResult.ok`: a response
        that executed after backend fallback keeps the skipped candidates
        in ``failures`` but reports the routed ``backend`` — and is ok.
        """
        if any(who == "planner" for who, _ in self.failures):
            return False
        return self.backend is not None or not self.failures

    @classmethod
    def from_result(cls, result: ServiceResult) -> "PlanResponse":
        rewrite = result.rewrite
        return cls(
            name=result.request.name,
            fingerprint=rewrite.fingerprint or result.request.expression.fingerprint(),
            plan=rewrite.best.to_string(),
            changed=rewrite.changed,
            cache_hit=rewrite.cache_hit,
            original_cost=_finite_or_none(rewrite.original_cost),
            best_cost=_finite_or_none(rewrite.best_cost),
            used_views=tuple(rewrite.used_views),
            backend=result.backend,
            value=value_to_json(result.value),
            failures=tuple((str(who), str(why)) for who, why in result.failures),
            timings=PhaseTimings(
                queue_seconds=result.queue_seconds,
                plan_seconds=result.plan_seconds,
                execute_seconds=result.execute_seconds,
                total_seconds=result.total_seconds,
            ),
        )

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        payload["used_views"] = list(self.used_views)
        payload["failures"] = [[who, why] for who, why in self.failures]
        payload["timings"] = self.timings.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Any) -> "PlanResponse":
        """Re-type a response document (raises :class:`ProtocolError`)."""
        if not isinstance(payload, dict):
            raise ProtocolError(f"response body must be a JSON object, got {payload!r}")
        try:
            failures = tuple(
                (str(who), str(why)) for who, why in payload.get("failures", [])
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed 'failures': {payload.get('failures')!r}") from exc
        used_views = payload.get("used_views", [])
        if not isinstance(used_views, list):
            raise ProtocolError(f"'used_views' must be a list, got {used_views!r}")
        return cls(
            name=str(payload.get("name", "")),
            fingerprint=str(payload.get("fingerprint", "")),
            plan=str(payload.get("plan", "")),
            changed=bool(payload.get("changed", False)),
            cache_hit=bool(payload.get("cache_hit", False)),
            original_cost=payload.get("original_cost"),
            best_cost=payload.get("best_cost"),
            used_views=tuple(str(view) for view in used_views),
            backend=payload.get("backend"),
            value=payload.get("value"),
            failures=failures,
            timings=PhaseTimings.from_json(payload.get("timings", {})),
        )


__all__ = [
    "MAX_EXPR_NODES",
    "MAX_INLINE_VALUE_ELEMENTS",
    "PhaseTimings",
    "PlanRequest",
    "PlanResponse",
    "ProtocolError",
    "expr_from_json",
    "expr_to_json",
    "op_registry",
    "value_to_json",
]
