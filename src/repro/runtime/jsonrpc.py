"""Minimal JSON-RPC 2.0 message layer for the wire runtime.

The wire protocol between CM-Shell endpoints is JSON-RPC 2.0 over
length-prefixed frames (:mod:`repro.runtime.transport`):

- ``cm.hello`` — a *request* opening a channel: ``{"src", "dst"}``; the
  gateway answers with a result echoing the channel so the dialer knows
  the endpoint routed it correctly.
- ``cm.deliver`` — a *notification* carrying one in-order channel message:
  ``{"src", "dst", "seq", "sent_at", "deliver_at", "payload"}``.

Only the subset the runtime needs is implemented, but it is implemented
properly: versioned envelopes, error objects with the standard codes, and
strict parsing that rejects malformed traffic instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

JSONRPC_VERSION = "2.0"

# Standard JSON-RPC 2.0 error codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
INVALID_PARAMS = -32602


class ProtocolError(Exception):
    """A malformed or protocol-violating JSON-RPC message."""

    def __init__(self, message: str, code: int = INVALID_REQUEST) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """A call expecting a response (has an id)."""

    method: str
    params: dict[str, Any] = field(default_factory=dict)
    id: int | str = 0

    def to_wire(self) -> dict[str, Any]:
        return {
            "jsonrpc": JSONRPC_VERSION,
            "id": self.id,
            "method": self.method,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class Notification:
    """A fire-and-forget call (no id, no response)."""

    method: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {
            "jsonrpc": JSONRPC_VERSION,
            "method": self.method,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class Response:
    """A successful result for a request id."""

    id: int | str
    result: Any = None

    def to_wire(self) -> dict[str, Any]:
        return {"jsonrpc": JSONRPC_VERSION, "id": self.id, "result": self.result}


@dataclass(frozen=True)
class ErrorResponse:
    """An error result for a request id (standard error object)."""

    id: int | str | None
    code: int
    message: str
    data: Any = None

    def to_wire(self) -> dict[str, Any]:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.data is not None:
            error["data"] = self.data
        return {"jsonrpc": JSONRPC_VERSION, "id": self.id, "error": error}


Message = Union[Request, Notification, Response, ErrorResponse]


def _message_id(raw: dict[str, Any]) -> int | str | None:
    """The envelope's id: a string, an integer or null (JSON-RPC 2.0 §4;
    a boolean is not an integer here)."""
    value = raw.get("id")
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ProtocolError(
        f"id must be a string, an integer or null, got {type(value).__name__}"
    )


def parse_message(raw: Any) -> Message:
    """Parse one decoded JSON value into a typed JSON-RPC message.

    Raises :class:`ProtocolError` on anything that is not a well-formed
    JSON-RPC 2.0 request, notification, response, or error.
    """
    if not isinstance(raw, dict):
        raise ProtocolError(f"message must be an object, got {type(raw).__name__}")
    if raw.get("jsonrpc") != JSONRPC_VERSION:
        raise ProtocolError(f"unsupported jsonrpc version: {raw.get('jsonrpc')!r}")
    if "method" in raw:
        method = raw["method"]
        if not isinstance(method, str):
            raise ProtocolError("method must be a string")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(
                "params must be an object", code=INVALID_PARAMS
            )
        if "id" in raw:
            return Request(method=method, params=params, id=_message_id(raw))
        return Notification(method=method, params=params)
    if "error" in raw:
        error = raw["error"]
        if not isinstance(error, dict) or "code" not in error:
            raise ProtocolError("malformed error object")
        code = error["code"]
        if not isinstance(code, int) or isinstance(code, bool):
            raise ProtocolError("error code must be an integer")  # §5.1
        return ErrorResponse(
            id=_message_id(raw),
            code=code,
            message=error.get("message", ""),
            data=error.get("data"),
        )
    if "result" in raw:
        if "id" not in raw:
            raise ProtocolError("response without an id")
        return Response(id=_message_id(raw), result=raw["result"])
    raise ProtocolError("message is neither request, notification, nor response")
