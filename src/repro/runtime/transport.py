"""Length-prefixed JSON framing over asyncio streams.

The wire format is deliberately boring: each frame is a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON (one JSON-RPC
message, :mod:`repro.runtime.jsonrpc`).  Length-prefixing (rather than
newline-delimiting) keeps the framing independent of payload content and
makes partial-read handling explicit.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.runtime.jsonrpc import (
    PARSE_ERROR,
    Message,
    ProtocolError,
    parse_message,
)

_HEADER = struct.Struct(">I")

#: Upper bound on one frame; anything larger is a protocol violation, not
#: a message (protects against desynchronized framing reading garbage
#: lengths).
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(message: Message | dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    wire = message.to_wire() if hasattr(message, "to_wire") else message
    body = json.dumps(wire, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}",
            code=PARSE_ERROR,
        )
    return _HEADER.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Message | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds {MAX_FRAME_BYTES}",
            code=PARSE_ERROR,
        )
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    try:
        raw = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}", code=PARSE_ERROR) from exc
    return parse_message(raw)


class FrameStream:
    """A bidirectional framed-message stream over one TCP connection."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    async def send(self, message: Message | dict[str, Any]) -> None:
        """Write one frame and flush it."""
        self.writer.write(encode_frame(message))
        await self.writer.drain()

    async def drain(self) -> None:
        await self.writer.drain()

    async def recv(self) -> Message | None:
        """Read one frame; ``None`` on EOF."""
        return await read_frame(self.reader)

    async def close(self) -> None:
        """Close the underlying connection, tolerating already-dead peers."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    @classmethod
    async def open(cls, host: str, port: int) -> "FrameStream":
        """Dial a listening endpoint."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)
