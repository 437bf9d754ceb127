"""Length-prefixed wire protocol for storage-node RPCs.

Every message on a TCP connection is one *frame*: a 4-byte big-endian
length followed by a body (the in-process transport passes the bodies
themselves — a queue keeps message boundaries). A body is::

    u32 header length | JSON header | raw payload segments

The header is the message — ``{"id", "method", "args", "kwargs"}``
requests, ``{"id", "ok", "value"}`` / ``{"id", "ok": False, "error"}``
replies — reduced to a JSON tree in which

* tuples become ``{"__t__": [...]}`` — storage keys are tuples like
  ``("erc-data", stripe_id, i)`` and must survive the round trip intact;
* ``numpy`` arrays become ``{"__nd__": [dtype, shape, nbytes]}`` and
  ``bytes`` become ``{"__b__": nbytes}``: the bytes themselves follow
  the header as segments, in the order the header names them;
* numpy scalars collapse to plain ints/floats.

Encoding joins the header and the arrays' own buffers once; decoding
returns ``np.frombuffer`` views of the received body — read-only, which
is the node contract (nodes store their own frozen copy of what they
are handed, readers must copy before mutating). Every length a body
states is checked against the bytes that are there, so an undecodable
body raises :class:`WireError` and nothing else. ``json`` names this
format and is the only serialization.

Error replies carry ``{"type", "message", ...}``; :func:`decode_error`
rebuilds the matching :mod:`repro.errors` class on the client so round
plans catch remote failures exactly like local ones (a remote
``NodeUnavailableError`` *is* the dead-node fast-fail path). Unknown
types surface as :class:`RemoteCallError`, which no plan catches — a
server-side programming error stays loud.
"""

from __future__ import annotations

import asyncio
import json
import struct
from math import prod

import numpy as np

from repro import errors as _errors
from repro.errors import ConfigurationError, ReproError

__all__ = [
    "MAX_FRAME",
    "Codec",
    "FrameProtocol",
    "RemoteCallError",
    "WireError",
    "decode_error",
    "encode_error",
    "frame",
]

#: hard cap on one frame body (a stripe block is a few KiB; 64 MiB is
#: far beyond any legitimate message and bounds a corrupted length word)
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")

_TUPLE = "__t__"
_BYTES = "__b__"
_NDARRAY = "__nd__"
_MARKERS = frozenset((_TUPLE, _BYTES, _NDARRAY))
#: array dtypes that cross the wire: bool, (u)int, float, complex
_NUMERIC_KINDS = "biufc"


class WireError(ReproError):
    """Malformed frame or undecodable message on the wire."""


class RemoteCallError(ReproError):
    """A service replied with an error this client cannot rebuild."""


# --------------------------------------------------------------------- #
# value reduction: _pack(obj, segments) -> JSON tree, buffers appended


#: types the JSON header carries as they are
_PLAIN = frozenset((type(None), bool, int, float, str))


def _pack_items(items, segments) -> list:
    return [
        item if type(item) in _PLAIN else _pack(item, segments) for item in items
    ]


def _pack_array(obj, segments):
    if obj.dtype.kind not in _NUMERIC_KINDS:
        raise WireError(f"{obj.dtype} array is not wire-encodable (numeric dtypes only)")
    if not obj.flags.c_contiguous:
        obj = np.ascontiguousarray(obj)
    segments.append(obj.data)
    return {_NDARRAY: [obj.dtype.str, list(obj.shape), obj.nbytes]}


def _pack_bytes(obj, segments):
    segments.append(obj)
    return {_BYTES: len(obj)}


def _pack_dict(obj, segments):
    packed = {}
    for key, value in obj.items():
        if type(key) is not str:
            raise WireError(
                f"mapping key {key!r} is not wire-encodable (string keys only)"
            )
        if key in _MARKERS:
            raise WireError(f"mapping key {key!r} collides with a wire marker")
        packed[key] = value if type(value) in _PLAIN else _pack(value, segments)
    return packed


_PACKERS = {
    np.ndarray: _pack_array,
    bytes: _pack_bytes,
    bytearray: _pack_bytes,
    tuple: lambda obj, segments: {_TUPLE: _pack_items(obj, segments)},
    list: _pack_items,
    dict: _pack_dict,
}


def _pack(obj, segments):
    packer = _PACKERS.get(type(obj))
    if packer is not None:
        return packer(obj, segments)
    if type(obj) in _PLAIN:
        return obj
    # subclasses: numpy scalars collapse to plain numbers
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _pack_array(obj, segments)
    raise WireError(f"{type(obj).__name__} value is not wire-encodable")


def _segment(nbytes, body, cursor) -> int:
    """Claim the next ``nbytes`` of ``body``; returns where they start."""
    if type(nbytes) is not int or nbytes < 0:
        raise WireError(f"segment length {nbytes!r} is not a non-negative integer")
    start = cursor[0]
    if start + nbytes > len(body):
        raise WireError(f"segment of {nbytes} bytes overruns the frame body")
    cursor[0] = start + nbytes
    return start


def _unpack_array(spec, body, cursor):
    if type(spec) is not list or len(spec) != 3:
        raise WireError(f"malformed array marker {spec!r}")
    dtype_str, shape, nbytes = spec
    try:
        dtype = np.dtype(dtype_str) if type(dtype_str) is str else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in _NUMERIC_KINDS or dtype.itemsize == 0:
        raise WireError(f"array dtype {dtype_str!r} is not a numeric dtype")
    if type(shape) is not list or any(
        type(dim) is not int or dim < 0 for dim in shape
    ):
        raise WireError(f"malformed array shape {shape!r}")
    count = prod(shape)
    if count * dtype.itemsize != nbytes:
        raise WireError(f"array of shape {shape} and dtype {dtype} is not {nbytes!r} bytes")
    start = _segment(nbytes, body, cursor)
    return np.frombuffer(body, dtype, count, start).reshape(shape)


def _unpack_items(items, body, cursor) -> list:
    return [
        item if type(item) in _PLAIN else _unpack(item, body, cursor)
        for item in items
    ]


def _unpack(obj, body, cursor):
    if type(obj) is list:
        return _unpack_items(obj, body, cursor)
    if type(obj) is not dict:
        return obj
    if len(obj) == 1:
        ((key, value),) = obj.items()
        if key == _NDARRAY:
            return _unpack_array(value, body, cursor)
        if key == _BYTES:
            start = _segment(value, body, cursor)
            return body[start : start + value]
        if key == _TUPLE:
            if type(value) is not list:
                raise WireError(f"malformed tuple marker {value!r}")
            return tuple(_unpack_items(value, body, cursor))
    elif not _MARKERS.isdisjoint(obj):
        raise WireError("wire marker mixed with other mapping keys")
    return {
        key: value if type(value) in _PLAIN else _unpack(value, body, cursor)
        for key, value in obj.items()
    }


# _pack builds a fresh tree, so the encoder's cycle check has nothing to find
_encode_header = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_decode_header = json.JSONDecoder().raw_decode


class Codec:
    """Encode/decode wire message bodies (header + raw segments).

    ``serialization`` names the format for callers that spell it out
    (the e2e micro-benchmark builds ``Codec("json")``); ``"json"`` is
    the only value accepted.
    """

    def __init__(self, serialization: str = "json") -> None:
        if serialization != "json":
            raise ConfigurationError(
                f"serialization must be 'json' (the only wire format), "
                f"got {serialization!r}"
            )

    def encode(self, message: dict) -> bytes:
        segments: list = []
        packed = _pack(message, segments)
        header = _encode_header(packed).encode("utf-8")
        return b"".join((_LEN.pack(len(header)), header, *segments))

    def decode(self, body: bytes):
        if type(body) is not bytes:
            body = bytes(body)  # the views handed out must never change
        if len(body) < _LEN.size:
            raise WireError("frame body shorter than its header length word")
        end = _LEN.size + _LEN.unpack_from(body)[0]
        if end > len(body):
            raise WireError("header length overruns the frame body")
        cursor = [end]
        try:
            header = body[_LEN.size : end].decode("utf-8")
            tree, stop = _decode_header(header)
            if stop != len(header):
                raise ValueError("bytes after the JSON value")
            message = _unpack(tree, body, cursor)
        except (ValueError, OverflowError, RecursionError) as exc:
            raise WireError(f"undecodable frame header: {exc}") from exc
        if cursor[0] != len(body):
            raise WireError(
                f"{len(body) - cursor[0]} trailing bytes after the last segment"
            )
        return message


# --------------------------------------------------------------------- #
# framing


def frame(body: bytes) -> bytes:
    """Prefix one encoded body with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME:
        raise WireError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


class FrameProtocol(asyncio.Protocol):
    """Framing for one connection; both ends use it.

    ``data_received`` reassembles frames and hands each complete body to
    ``on_frame``; a body that returns is framed and written back, so the
    serving end (``on_frame`` = ``StorageNodeService.handle_frame``)
    answers a request inside the callback that completed it. A length
    word above ``MAX_FRAME`` closes the connection the moment it is read
    — before any of the body is buffered.

    ``writable`` follows the transport's high-water mark. With
    ``serving`` set, a connection whose peer stopped reading replies
    also stops reading and answering requests until the peer catches up,
    so neither buffer grows; the requesting end instead keeps reading
    and holds new frames back (``on_resume`` tells it when to go on).
    ``on_lost`` is called with the protocol when the connection is gone.
    """

    def __init__(self, on_frame, *, serving=False, on_resume=None, on_lost=None):
        self.on_frame = on_frame
        self.serving = serving
        self.on_resume = on_resume
        self.on_lost = on_lost
        self.transport: asyncio.Transport | None = None
        self.writable = True
        self._buffer = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        if self.on_lost is not None:
            self.on_lost(self)

    def pause_writing(self) -> None:
        self.writable = False
        if self.serving:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writable = True
        if self.serving:
            self.transport.resume_reading()
            self._pump()  # requests that waited in the buffer
        if self.on_resume is not None:
            self.on_resume()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._pump()

    def _pump(self) -> None:
        """Hand every complete frame in the buffer to ``on_frame``."""
        buffer = self._buffer
        start, size = 0, len(buffer)
        while size - start >= _LEN.size and (self.writable or not self.serving):
            end = start + _LEN.size + _LEN.unpack_from(buffer, start)[0]
            if end - start - _LEN.size > MAX_FRAME:
                buffer.clear()
                self.transport.close()
                return
            if end > size:
                break
            with memoryview(buffer) as view:
                body = bytes(view[start + _LEN.size : end])
            start = end
            reply = self.on_frame(body)
            if reply is not None:
                self.transport.write(frame(reply))
        del buffer[:start]


# --------------------------------------------------------------------- #
# error marshalling


def encode_error(exc: BaseException) -> dict:
    """Reduce an exception to its wire form (type name + message)."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    node_id = getattr(exc, "node_id", None)
    if node_id is not None:
        payload["node_id"] = int(node_id)
    return payload


def decode_error(payload: dict) -> Exception:
    """Rebuild a client-side exception from an error reply."""
    if not isinstance(payload, dict):
        payload = {}
    kind = payload.get("type", "Exception")
    message = payload.get("message", "")
    if kind == "NodeUnavailableError":
        node_id = payload.get("node_id")
        return _errors.NodeUnavailableError(node_id if type(node_id) is int else -1)
    if kind == "KeyError":
        return KeyError(message)
    cls = getattr(_errors, kind, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return RemoteCallError(f"{kind}: {message}")
