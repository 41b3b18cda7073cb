"""Wire protocol for the query service: one JSON object per line.

JSONL-over-a-socket is the smallest protocol that still carries
structure: a client writes one request object terminated by ``\\n`` and
reads exactly one response line back, so framing is the newline and the
transport needs no length prefixes or content negotiation.  Everything
here is pure data-shaping — the socket code lives in
:mod:`repro.service.server` / :mod:`repro.service.client`, and the
handler logic is testable on plain dicts.

Status codes follow the HTTP idiom because every operator already knows
it: 200 ok, 206 partial result, 400 bad request, 404 unknown graph,
408 admission wait timed out, 429 shed by admission control, 503
breaker open with no stale fallback, 504 deadline exceeded during
execution, 500 everything else.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.algorithms.registry import REGISTRY
from repro.errors import ProtocolError

#: Protocol identifier echoed in every response.
PROTOCOL = "repro-query/v1"

#: Hard cap on one frame; a line longer than this is a protocol error
#: (keeps a misbehaving client from ballooning server memory).
MAX_FRAME_BYTES = 1 << 20

#: Operations a request may carry.
OPS = ("query", "mutate", "ping", "stats", "metrics", "catalog", "shutdown")

# -- status codes ----------------------------------------------------------------------

OK = 200
PARTIAL = 206
BAD_REQUEST = 400
UNKNOWN_GRAPH = 404
ADMISSION_TIMEOUT = 408
SHED = 429
INTERNAL = 500
UNAVAILABLE = 503
DEADLINE = 504


def encode(obj: Dict[str, Any]) -> bytes:
    """One frame: compact JSON + newline."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not a JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def _validate_edges(edges: Any, field: str, *, weighted: bool) -> list:
    """Normalize a mutate edge list: ``[src, dst]`` or ``[src, dst, w]``."""
    if edges is None:
        return []
    if not isinstance(edges, list):
        raise ProtocolError(f"'{field}' must be a list of edges")
    out = []
    max_arity = 3 if weighted else 2
    for i, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or not (
            2 <= len(edge) <= max_arity
        ):
            raise ProtocolError(
                f"'{field}'[{i}] must be [src, dst"
                + (", weight?]" if weighted else "]")
            )
        try:
            src, dst = int(edge[0]), int(edge[1])
            weight = float(edge[2]) if len(edge) == 3 else 1.0
        except (TypeError, ValueError):
            raise ProtocolError(
                f"'{field}'[{i}] has non-numeric entries: {edge!r}"
            ) from None
        out.append((src, dst, weight) if weighted else (src, dst))
    return out


def validate_request(req: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize and validate one request; raises :class:`ProtocolError`.

    Returns the request with defaults filled in (``tenant``,
    ``params``); the caller can rely on every field being present and
    type-correct afterwards.  A query's ``params`` are every field its
    registry spec consumes, typed, so equal queries share a cache key.
    """
    op = req.get("op", "query")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    out = dict(req)
    out["op"] = op
    out.setdefault("id", None)
    out["tenant"] = str(req.get("tenant") or "default")
    if op == "mutate":
        graph = req.get("graph")
        if not isinstance(graph, str) or not graph:
            raise ProtocolError("mutate needs a 'graph' name (string)")
        out["insert"] = _validate_edges(req.get("insert"), "insert", weighted=True)
        out["remove"] = _validate_edges(req.get("remove"), "remove", weighted=False)
        if not out["insert"] and not out["remove"]:
            raise ProtocolError(
                "mutate needs a non-empty 'insert' or 'remove' list"
            )
        return out
    if op != "query":
        return out
    graph = req.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ProtocolError("query needs a 'graph' name (string)")
    algorithm = req.get("algorithm")
    spec = REGISTRY.get(algorithm) if isinstance(algorithm, str) else None
    if spec is None:
        raise ProtocolError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{tuple(REGISTRY)}"
        )
    params = req.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    try:
        params = spec.wire_params(params)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad {algorithm} parameters: {exc}") from None
    timeout_s = req.get("timeout_s")
    if timeout_s is not None:
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"'timeout_s' must be a number, got {timeout_s!r}"
            ) from None
        if timeout_s <= 0:
            raise ProtocolError(f"'timeout_s' must be positive, got {timeout_s}")
    out["params"] = params
    out["timeout_s"] = timeout_s
    return out


def response(
    req: Optional[Dict[str, Any]],
    code: int,
    *,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[str] = None,
    **server_fields: Any,
) -> Dict[str, Any]:
    """Assemble one response frame for ``req`` (which may be None when
    the request itself was unparseable)."""
    status = "ok" if code == OK else ("partial" if code == PARTIAL else "error")
    out: Dict[str, Any] = {
        "protocol": PROTOCOL,
        "id": (req or {}).get("id"),
        "status": status,
        "code": code,
    }
    if result is not None:
        out["result"] = result
    if error is not None:
        out["error"] = error
    if server_fields:
        out["server"] = server_fields
    return out
