"""Length-prefixed, checksummed frames for shard-worker sockets.

The front-end and its out-of-process shard workers
(:mod:`repro.net.worker`) exchange binary frames over a local TCP
socket.  Each frame is::

    !I   payload length (bytes; bounded by MAX_FRAME_BYTES)
    !B   frame type (FT_* constants)
    !Q   correlation id (an answer carries its frame's; HELLO and SHUTDOWN use 0)
    !I   CRC-32 over (type, correlation id, payload)

followed by the payload.  The CRC covers the type and correlation id
as well as the payload so a bit-flip anywhere except the length prefix
is detected; because the length prefix is honest even for a corrupt
frame, the receiver stays in sync with the stream and can answer the
damaged correlation id with a retryable error instead of tearing the
connection down (:class:`FrameCorruptError` carries both fields).

The codec is deliberately transport-blocking (plain ``socket`` calls):
the worker side is a single-threaded loop that only answers, and the
client side makes each exchange a send followed by a receive on the
calling thread, one at a time, so asyncio never crosses the process
boundary.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Optional, Tuple

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "FT_HELLO",
    "FT_ADOPT",
    "FT_CONFIG",
    "FT_READY",
    "FT_REQUEST",
    "FT_RESPONSE",
    "FT_HEARTBEAT",
    "FT_ERROR",
    "FT_SHUTDOWN",
    "FT_ADOPT_OK",
    "FrameError",
    "FrameCorruptError",
    "FrameTooLarge",
    "frame_crc",
    "encode_frame",
    "encode_json_frame",
    "decode_json_payload",
    "send_frame",
    "send_json_frame",
    "recv_frame",
]

#: Version of *this* frame protocol — checked in the HELLO handshake,
#: independent of the JSONL protocol version the front-end speaks.
#: Version 2: the worker answers a HEARTBEAT and sends none unasked.
WIRE_VERSION = 2

#: Upper bound on a single frame's payload; large enough for a packed
#: multi-million-edge graph image, small enough to catch a garbled
#: length prefix before a 4 GiB allocation.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct("!IBQI")
_CRC_SEED = struct.Struct("!BQ")

FT_HELLO = 1
FT_ADOPT = 2
FT_CONFIG = 3
FT_READY = 4
FT_REQUEST = 5
FT_RESPONSE = 6
FT_HEARTBEAT = 7
FT_ERROR = 8
FT_SHUTDOWN = 9
FT_ADOPT_OK = 10


class FrameError(RuntimeError):
    """The frame stream is unusable (desync, oversize, mid-frame loss)."""


class FrameTooLarge(FrameError):
    """A frame announced a payload beyond :data:`MAX_FRAME_BYTES`."""


class FrameCorruptError(FrameError):
    """CRC mismatch on an otherwise well-delimited frame.

    Recoverable: the stream itself is still framed correctly (the
    length prefix was honoured), so the receiver may fail just this
    ``corr`` and keep reading.
    """

    def __init__(self, message: str, *, frame_type: int = 0, corr: int = 0):
        super().__init__(message)
        self.frame_type = frame_type
        self.corr = corr


def frame_crc(frame_type: int, corr: int, payload: bytes) -> int:
    """CRC-32 over the type byte, correlation id and payload."""
    return zlib.crc32(payload, zlib.crc32(_CRC_SEED.pack(frame_type, corr))) & 0xFFFFFFFF


def encode_frame(frame_type: int, corr: int, payload: bytes) -> bytes:
    """Header + payload bytes ready for ``sendall``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    crc = frame_crc(frame_type, corr, payload)
    return _HEADER.pack(len(payload), frame_type, corr, crc) + payload


def encode_json_frame(frame_type: int, corr: int, obj) -> bytes:
    return encode_frame(
        frame_type, corr, json.dumps(obj, sort_keys=True).encode("utf-8")
    )


def decode_json_payload(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FrameError(f"undecodable JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError(f"JSON payload must be an object, got {type(obj).__name__}")
    return obj


def send_frame(sock: socket.socket, frame_type: int, corr: int, payload: bytes) -> int:
    """Encode and ``sendall`` one frame; returns bytes written."""
    data = encode_frame(frame_type, corr, payload)
    sock.sendall(data)
    return len(data)


def send_json_frame(sock: socket.socket, frame_type: int, corr: int, obj) -> int:
    data = encode_json_frame(frame_type, corr, obj)
    sock.sendall(data)
    return len(data)


def _recv_exact(
    sock: socket.socket,
    n: int,
    *,
    first_timeout: Optional[float],
    rest_timeout: Optional[float],
    mid_frame: bool = False,
) -> bytes:
    """Read exactly ``n`` bytes.

    The first ``recv`` runs under ``first_timeout`` (``socket.timeout``
    propagates — the caller treats it as a missed deadline); once any byte
    has arrived (or when ``mid_frame`` is already set) the remaining
    reads run under ``rest_timeout`` and a timeout there is a *fatal*
    :class:`FrameError`, because a partial frame means the stream can
    never re-synchronise.
    """
    out = bytearray()
    sock.settimeout(rest_timeout if mid_frame else first_timeout)
    while len(out) < n:
        try:
            chunk = sock.recv(n - len(out))
        except socket.timeout:
            if mid_frame:
                raise FrameError(
                    f"timed out mid-frame after {len(out)} bytes"
                ) from None
            raise
        if not chunk:
            raise EOFError("frame stream closed")
        out += chunk
        if not mid_frame:
            mid_frame = True
            sock.settimeout(rest_timeout)
    return bytes(out)


def recv_frame(
    sock: socket.socket,
    *,
    idle_timeout: Optional[float] = None,
    frame_timeout: Optional[float] = 30.0,
) -> Tuple[int, int, bytes]:
    """Read one frame; returns ``(frame_type, corr, payload)``.

    Raises ``socket.timeout`` if no frame *starts* within
    ``idle_timeout`` (callers use this as their answer deadline),
    :class:`EOFError` on orderly close, :class:`FrameCorruptError` on a
    CRC mismatch (stream still usable), and :class:`FrameError` when
    the stream is beyond recovery (oversize or mid-frame stall).
    """
    header = _recv_exact(
        sock,
        _HEADER.size,
        first_timeout=idle_timeout,
        rest_timeout=frame_timeout,
    )
    length, frame_type, corr, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"incoming frame announces {length} bytes (max {MAX_FRAME_BYTES})"
        )
    payload = b""
    if length:
        payload = _recv_exact(
            sock,
            length,
            first_timeout=frame_timeout,
            rest_timeout=frame_timeout,
            mid_frame=True,  # header already consumed: timeouts are fatal
        )
    if frame_crc(frame_type, corr, payload) != crc:
        raise FrameCorruptError(
            f"CRC mismatch on frame type {frame_type} corr {corr}",
            frame_type=frame_type,
            corr=corr,
        )
    return frame_type, corr, payload
