"""Wire protocol: value reduction, hostile bodies, framing, error marshalling."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.node import StorageNode
from repro.errors import (
    ConfigurationError,
    NodeUnavailableError,
    ReproError,
    StaleNodeError,
)
from repro.services import (
    MAX_FRAME,
    SERIALIZATIONS,
    Codec,
    FrameProtocol,
    RemoteCallError,
    StorageNodeService,
    WireError,
    decode_error,
    encode_error,
    frame,
)

VECTORS = Path(__file__).resolve().parents[1] / "vectors" / "wire.json"


def body_of(header, *segments: bytes) -> bytes:
    """A frame body around an arbitrary (possibly hostile) JSON header."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack(">I", len(text)) + text + b"".join(segments)


def same(a, b) -> bool:
    """Deep equality that tells tuples from lists and compares arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b or (a != a and b != b)  # NaN round-trips as NaN


class TestCodecRoundTrip:
    def test_storage_key_tuples_survive(self):
        codec = Codec()
        message = {"args": [("erc-data", 3, 1), ("erc-parity", 0)]}
        decoded = codec.decode(codec.encode(message))
        assert decoded["args"] == [("erc-data", 3, 1), ("erc-parity", 0)]
        assert isinstance(decoded["args"][0], tuple)

    def test_ndarray_round_trip_dtype_and_shape(self):
        codec = Codec()
        value = np.arange(24, dtype=np.uint8).reshape(4, 6)
        decoded = codec.decode(codec.encode({"value": value}))
        assert np.array_equal(decoded["value"], value)
        assert decoded["value"].dtype == np.uint8
        assert decoded["value"].shape == (4, 6)

    def test_payload_travels_raw_behind_the_header(self):
        value = np.arange(256, dtype=np.uint8)
        body = Codec().encode({"value": value})
        (header_len,) = struct.unpack_from(">I", body)
        assert json.loads(body[4 : 4 + header_len]) == {
            "value": {"__nd__": ["|u1", [256], 256]}
        }
        assert body[4 + header_len :] == value.tobytes()

    def test_bytes_and_scalars(self):
        codec = Codec()
        message = {
            "b": b"\x00\xff",
            "ba": bytearray(b"xy"),
            "i": np.int64(7),
            "f": np.float64(0.5),
            "nb": np.bool_(True),
            "n": None,
            "t": True,
        }
        decoded = codec.decode(codec.encode(message))
        assert decoded["b"] == b"\x00\xff" and decoded["ba"] == b"xy"
        assert decoded["i"] == 7 and type(decoded["i"]) is int
        assert decoded["f"] == 0.5 and type(decoded["f"]) is float
        assert decoded["nb"] is True
        assert decoded["n"] is None and decoded["t"] is True

    def test_nested_structures(self):
        codec = Codec()
        message = {"versions": [(0, 1), (2, 3)], "map": {"inner": (1, b"x")}}
        decoded = codec.decode(codec.encode(message))
        assert decoded == {"versions": [(0, 1), (2, 3)], "map": {"inner": (1, b"x")}}

    def test_decoded_arrays_are_read_only_views_of_the_body(self):
        codec = Codec()
        body = codec.encode({"value": np.arange(8, dtype=np.uint8)})
        for given_body in (body, bytearray(body), memoryview(body)):
            value = codec.decode(given_body)["value"]
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 1
        assert np.shares_memory(
            codec.decode(body)["value"], np.frombuffer(body, np.uint8)
        )

    def test_node_keeps_its_own_copy_of_a_decoded_view(self):
        # the node contract: write_data stores a frozen copy, so the
        # record outlives the frame buffer the request arrived in
        service = StorageNodeService(StorageNode(0))
        payload = np.arange(64, dtype=np.uint8)
        request = bytearray(
            service.codec.encode(
                {"id": 1, "method": "write_data", "args": ["k", payload, 1]}
            )
        )
        assert service.codec.decode(service.handle_frame(request))["ok"]
        request[:] = b"\xff" * len(request)  # the buffer is reused
        del request
        stored, version = service.node.read_data("k")
        assert np.array_equal(stored, payload) and version == 1

    @pytest.mark.parametrize(
        "message",
        [
            {1: "x"},
            {"__t__": "not a tuple"},
            {"obj": object()},
            {"a": np.array([object()])},
            {"a": np.array(["text"])},
            {"a": np.zeros(2, dtype=[("x", "u1")])},
        ],
    )
    def test_unencodable_values_rejected(self, message):
        with pytest.raises(WireError):
            Codec().encode(message)

    def test_json_is_the_only_serialization(self):
        assert SERIALIZATIONS == ("json",)
        assert Codec("json").serialization == "json"
        for name in ("msgpack", "pickle"):
            with pytest.raises(ConfigurationError, match="json"):
                Codec(name)


_DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(endianness="?"),
    hnp.unsigned_integer_dtypes(endianness="?"),
    hnp.floating_dtypes(endianness="?"),
    hnp.complex_number_dtypes(endianness="?"),
)


@st.composite
def _arrays(draw):
    array = draw(
        hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    )
    if array.ndim and draw(st.booleans()):
        array = array[..., ::2]  # non-contiguous input
    if array.ndim == 2 and draw(st.booleans()):
        array = array.T
    return array


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    st.text(max_size=8),
    st.binary(max_size=16),
    _arrays(),
)
_KEYS = st.text(max_size=6).filter(lambda key: key not in ("__t__", "__b__", "__nd__"))
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_round_trip(self, value):
        codec = Codec()
        decoded = codec.decode(codec.encode({"value": value}))["value"]
        assert same(decoded, _contiguous(value))

    @settings(max_examples=300, deadline=None)
    @given(_VALUES, st.data())
    def test_mutated_bodies_raise_wire_error_only(self, value, data):
        codec = Codec()
        body = bytearray(codec.encode({"id": 1, "value": value}))
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(("flip", "cut", "grow", "length")))
            if kind == "flip" and body:
                at = data.draw(st.integers(0, len(body) - 1))
                body[at] ^= data.draw(st.integers(1, 255))
            elif kind == "cut":
                del body[data.draw(st.integers(0, len(body))) :]
            elif kind == "grow":
                body += data.draw(st.binary(min_size=1, max_size=8))
            elif len(body) >= 4:
                body[:4] = struct.pack(">I", data.draw(st.integers(0, 2**32 - 1)))
        try:
            decoded = codec.decode(bytes(body))
        except WireError:
            return
        # whatever still decodes is made of views into the body: nothing
        # a length word claims can exceed the bytes that arrived
        assert _array_bytes(decoded) <= len(body)


def _contiguous(value):
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).reshape(value.shape)
    if isinstance(value, (list, tuple)):
        return type(value)(_contiguous(item) for item in value)
    if isinstance(value, dict):
        return {key: _contiguous(item) for key, item in value.items()}
    return value


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_array_bytes(item) for item in value.values())
    return 0


HOSTILE_BODIES = {
    "empty": b"",
    "short length word": b"\x00\x00",
    "header overruns body": struct.pack(">I", 99) + b"{}",
    "not json": body_of(b"\xff not json"),
    "json then garbage": body_of(b'{"id":1} x'),
    "deep nesting": body_of(b"[" * 100_000),
    "object dtype": body_of({"__nd__": ["|O", [1], 8]}, b"\0" * 8),
    "zero-itemsize dtype": body_of({"__nd__": ["|V0", [1], 0]}),
    "string dtype": body_of({"__nd__": ["<U2", [1], 8]}, b"\0" * 8),
    "structured dtype": body_of({"__nd__": ["u1,u1", [1], 2]}, b"\0" * 2),
    "garbage dtype": body_of({"__nd__": ["nope", [1], 1]}, b"\0"),
    "dtype not a string": body_of({"__nd__": [None, [1], 8]}, b"\0" * 8),
    "shape is not bytes": body_of({"__nd__": ["|u1", [7], 3]}, b"abc"),
    "negative dim": body_of({"__nd__": ["|u1", [-1], 3]}, b"abc"),
    "dim not an int": body_of({"__nd__": ["|u1", ["3"], 3]}, b"abc"),
    "huge empty shape": body_of({"__nd__": ["|u1", [2**62, 2**62, 0], 0]}),
    "marker not a list": body_of({"__nd__": 5}),
    "marker wrong arity": body_of({"__nd__": ["|u1", [1]]}, b"a"),
    "old base64 array": body_of({"__nd__": ["|u1", [3], "AAAA"]}),
    "tuple marker not a list": body_of({"__t__": 3}),
    "bytes length is text": body_of({"__b__": "!!!"}),
    "bytes length negative": body_of({"__b__": -1}),
    "bytes length is a float": body_of({"__b__": 2.0}, b"ab"),
    "bytes length is a bool": body_of({"__b__": True}, b"a"),
    "segment overruns body": body_of({"__b__": 10}, b"short"),
    "marker beside other keys": body_of({"__b__": 1, "x": 2}, b"a"),
    "trailing bytes": body_of({"id": 1}, b"extra"),
    "unclaimed segment": body_of({"__b__": 1}, b"ab"),
}


class TestHostileBodies:
    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_decode_raises_wire_error_only(self, name):
        with pytest.raises(WireError):
            Codec().decode(HOSTILE_BODIES[name])

    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_service_answers_with_a_typed_error_reply(self, name):
        service = StorageNodeService(StorageNode(0))
        reply = service.codec.decode(service.handle_frame(HOSTILE_BODIES[name]))
        assert reply["ok"] is False and reply["id"] is None
        assert reply["error"]["type"] == "WireError"
        assert service.faults == 1

    @pytest.mark.parametrize(
        "message",
        [
            [1, 2],
            {"id": 1, "method": ["ping"]},
            {"id": 1, "method": {"a": 1}},
            {"id": 1, "method": "read_data", "args": 5},
            {"id": 1, "method": "read_data", "args": ["k"], "kwargs": [1]},
            {"id": 1, "method": "read_data", "args": [["unhashable"]]},
        ],
    )
    def test_well_formed_but_wrong_requests_get_error_replies(self, message):
        service = StorageNodeService(StorageNode(0))
        reply = service.codec.decode(
            service.handle_frame(service.codec.encode(message))
        )
        assert reply["ok"] is False and reply["error"]["type"]


class Pipe:
    """Stand-in for an asyncio transport under a FrameProtocol."""

    def __init__(self):
        self.written = []
        self.closed = False
        self.reading = True

    def write(self, data):
        self.written.append(bytes(data))

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def receiver(**kwargs):
    frames: list[bytes] = []
    protocol = FrameProtocol(frames.append, **kwargs)
    pipe = Pipe()
    protocol.connection_made(pipe)
    return protocol, pipe, frames


class TestFraming:
    def test_frame_prefixes_length(self):
        assert frame(b"hello") == b"\x00\x00\x00\x05hello"

    def test_frame_rejects_oversize(self):
        class FakeBytes(bytes):
            def __len__(self):
                return MAX_FRAME + 1

        with pytest.raises(WireError):
            frame(FakeBytes())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=40), max_size=8), st.data())
    def test_any_chunking_yields_the_same_frames_in_order(self, bodies, data):
        stream = b"".join(frame(body) for body in bodies)
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
        )
        protocol, pipe, frames = receiver()
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            protocol.data_received(stream[start:end])
        assert frames == bodies
        assert not pipe.closed and not protocol._buffer

    def test_partial_frame_waits_for_the_rest(self):
        protocol, _, frames = receiver()
        protocol.data_received(b"\x00\x00")
        protocol.data_received(b"\x00\x09shor")
        assert frames == []
        protocol.data_received(b"tbody")
        assert frames == [b"shortbody"]

    def test_oversize_length_word_closes_before_buffering_the_body(self):
        protocol, pipe, frames = receiver()
        protocol.data_received(frame(b"ok") + struct.pack(">I", MAX_FRAME + 1) + b"x" * 64)
        assert frames == [b"ok"]
        assert pipe.closed
        assert len(protocol._buffer) == 0

    def test_max_frame_itself_is_accepted(self):
        protocol, pipe, _ = receiver()
        protocol.data_received(struct.pack(">I", MAX_FRAME))
        assert not pipe.closed

    def test_returned_bodies_are_framed_and_written_back(self):
        protocol = FrameProtocol(lambda body: body.upper())
        pipe = Pipe()
        protocol.connection_made(pipe)
        protocol.data_received(frame(b"ab") + frame(b"cd"))
        assert pipe.written == [frame(b"AB"), frame(b"CD")]

    def test_serving_end_stops_answering_while_the_peer_does_not_read(self):
        protocol = FrameProtocol(lambda body: body, serving=True)
        pipe = Pipe()
        protocol.connection_made(pipe)
        protocol.data_received(frame(b"1"))
        protocol.pause_writing()
        assert not pipe.reading
        protocol.data_received(frame(b"2") + frame(b"3"))  # already in flight
        assert pipe.written == [frame(b"1")]
        protocol.resume_writing()
        assert pipe.reading
        assert pipe.written == [frame(b"1"), frame(b"2"), frame(b"3")]

    def test_requesting_end_keeps_reading_while_paused(self):
        resumed = []
        protocol, pipe, frames = receiver(on_resume=lambda: resumed.append(True))
        protocol.pause_writing()
        assert pipe.reading and not protocol.writable
        protocol.data_received(frame(b"reply"))
        assert frames == [b"reply"]
        protocol.resume_writing()
        assert protocol.writable and resumed == [True]


def _build(value):
    """A vector file's message notation as the Python value it stands for."""
    if isinstance(value, list):
        return [_build(item) for item in value]
    if not isinstance(value, dict):
        return value
    ((kind, inner),) = value.items()
    if kind == "tuple":
        return tuple(_build(item) for item in inner)
    if kind == "bytes":
        return bytes.fromhex(inner)
    if kind == "ndarray":
        flat = np.frombuffer(bytes.fromhex(inner["hex"]), np.dtype(inner["dtype"]))
        return flat.reshape(inner["shape"])
    assert kind == "map"
    return {key: _build(item) for key, item in inner.items()}


_VECTORS = json.loads(VECTORS.read_text(encoding="utf-8"))["vectors"]


class TestGoldenVectors:
    """tests/vectors/wire.json: the format, pinned as bytes."""

    @pytest.mark.parametrize("vector", _VECTORS, ids=lambda v: v["name"])
    def test_message_encodes_to_the_frame(self, vector):
        assert frame(Codec().encode(_build(vector["message"]))).hex() == vector["frame"]

    @pytest.mark.parametrize("vector", _VECTORS, ids=lambda v: v["name"])
    def test_frame_decodes_to_the_message(self, vector):
        protocol, _, frames = receiver()
        protocol.data_received(bytes.fromhex(vector["frame"]))
        (body,) = frames
        assert same(Codec().decode(body), _build(vector["message"]))

    def test_vectors_cover_every_rpc_request(self):
        from repro.services import RPC_METHODS

        methods = {
            v["message"]["map"].get("method") for v in _VECTORS
        } - {None}
        assert methods == set(RPC_METHODS)


class TestErrorMarshalling:
    def test_node_unavailable_round_trip_keeps_node_id(self):
        payload = encode_error(NodeUnavailableError(4))
        rebuilt = decode_error(payload)
        assert isinstance(rebuilt, NodeUnavailableError)
        assert rebuilt.node_id == 4

    def test_repro_error_subclass_by_name(self):
        rebuilt = decode_error(encode_error(StaleNodeError("stale write")))
        assert isinstance(rebuilt, StaleNodeError)
        assert "stale write" in str(rebuilt)

    def test_key_error_passthrough(self):
        rebuilt = decode_error(encode_error(KeyError("missing")))
        assert isinstance(rebuilt, KeyError)

    def test_unknown_type_becomes_remote_call_error(self):
        rebuilt = decode_error({"type": "ZeroDivisionError", "message": "boom"})
        assert isinstance(rebuilt, RemoteCallError)
        assert not isinstance(rebuilt, (NodeUnavailableError, KeyError))
        assert "ZeroDivisionError" in str(rebuilt)

    @pytest.mark.parametrize(
        "payload", [None, 5, "text", {"type": "NodeUnavailableError", "node_id": "x"}]
    )
    def test_malformed_error_payloads_still_rebuild(self, payload):
        assert isinstance(decode_error(payload), Exception)

    def test_remote_call_error_is_repro_error(self):
        # uncatchable by plans (no plan catches RemoteCallError), but
        # still inside the repo's exception hierarchy for callers
        assert issubclass(RemoteCallError, ReproError)
