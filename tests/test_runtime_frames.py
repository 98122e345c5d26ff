"""Zero-copy dispatch: RBF1 frames, shm lanes, batched submission.

The contracts pinned here:

* the RBF1 frame codec round-trips arrays of every wire dtype
  bit-for-bit — raw or COO — and rejects every malformed or hostile
  frame with a typed :class:`~repro.errors.CodecError` *before*
  allocating a buffer for it (truncations, oversized length prefixes,
  dtype smuggling, out-of-bounds descriptors); hand-listed hostile
  frames sit beside a hypothesis fuzz of the same contract;
* RBF1 is the only framing, from a connection's first byte: remote
  lanes merge bit-identically, a deployment table larger than the
  header cap deploys through the frame body on both the listen and the
  join path, and a peer speaking anything else (a v1 JSON line) gets
  one typed ``CodecError`` frame and a hangup, never a hang;
* one structured-error codec serves both TCP surfaces: each caller's
  type map resurrects its own classes, everything else its fallback;
* the shared-memory lane of :class:`ProcessWorker` is equally inert:
  ``REPRO_NO_SHM=1`` (the pickle path) produces the same bits;
* batched submission (``submit_many``/``execute_many``) returns the
  same results as item-at-a-time dispatch, with per-item task errors
  failing only their own future;
* an ``execute_many`` reply's batch-trace arrays are validated client
  side: a missing array, a non-int64 trace array or a shape that does
  not line up with the item's logits and layer list is a broken lane
  (``WorkerCrashError``), never a silently wrong trace — hand-listed
  cases beside a hypothesis fuzz of the reply shape;
* both ends of every fabric connection, listen and join path, carry
  ``TCP_NODELAY`` and keepalive, so a pipelined reply never waits for
  the driver's delayed ACK;
* the encoder's frames are pinned byte for byte by sha256 digests.
"""

import functools
import hashlib
import io
import json
import pickle
import queue
import socket
import statistics
import struct
import threading
import time

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AcceleratorConfig
from repro.core.engine.calibrate import probe_batch
from repro.core.engine.trace import CHARGE_COLUMNS
from repro.errors import (
    CodecError,
    DeploymentError,
    RemoteExecutionError,
    ServeError,
    WorkerCrashError,
)
from repro.models import performance_network
from repro.runtime import (
    Deployment,
    GroupListener,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkResult,
    WorkerGroup,
    WorkerServer,
    attach_token,
    decode_frame,
    encode_frame,
    join_fabric,
    parse_frame_prefix,
    read_frame,
    shm_available,
)
from repro.runtime import remote as remote_module
from repro.runtime.codec import (
    FRAME_MAGIC,
    FRAME_PREFIX_LEN,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    error_from_payload,
    error_payload,
)
from repro.runtime.remote import (
    _REMOTE_ERROR_TYPES,
    _handle_request,
    _RemoteFlight,
)
from repro.runtime.work import execute_item
from repro.serve.transport import _ERROR_TYPES
from test_runtime import make_items, run_group, tiny_deployment

_PREFIX = struct.Struct("<4sIQ")


def frame_of(header: dict, body: bytes = b"") -> bytes:
    """Hand-assemble a frame from a raw header dict (for hostile tests)."""
    raw = json.dumps(header).encode()
    return _PREFIX.pack(FRAME_MAGIC, len(raw), len(body)) + raw + body


class TestBinaryFrameRoundtrip:
    def test_payload_and_arrays_bit_identical(self, rng):
        arrays = {
            "images": rng.random((3, 1, 8, 8)),
            "ids": np.arange(7, dtype=np.int32),
            "mask": rng.random(300) < 0.5,
        }
        payload = {"op": "execute", "nested": {"a": [1, 2.5, None]}}
        frame = encode_frame(payload, arrays)
        reader = io.BytesIO(frame)
        decoded_payload, decoded = read_frame(reader)
        assert decoded_payload == payload
        assert reader.read() == b""  # frame is self-delimiting
        for name, array in arrays.items():
            np.testing.assert_array_equal(decoded[name], array)
            assert decoded[name].dtype == array.dtype

    def test_raw_arrays_are_zero_copy_views(self, rng):
        array = rng.random((4, 4))
        frame = encode_frame({}, {"x": array})
        _, decoded = read_frame(io.BytesIO(frame))
        assert not decoded["x"].flags.writeable  # view into the body
        np.testing.assert_array_equal(decoded["x"], array)

    def test_sparse_arrays_ship_as_coo_and_rebuild_exactly(self, rng):
        dense = np.zeros(4096)
        hot = rng.choice(4096, size=64, replace=False)
        dense[hot] = rng.random(64)
        frame = encode_frame({}, {"x": dense})
        # The COO form must actually be smaller than the raw buffer.
        assert len(frame) < dense.nbytes
        header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
        header = json.loads(frame[FRAME_PREFIX_LEN:
                                  FRAME_PREFIX_LEN + header_len])
        assert header["arrays"]["x"]["enc"] == "coo"
        _, decoded = read_frame(io.BytesIO(frame))
        np.testing.assert_array_equal(decoded["x"], dense)

    def test_dense_and_tiny_arrays_stay_raw(self, rng):
        for array in (rng.random(4096),            # dense
                      np.zeros(16)):               # sparse but tiny
            frame = encode_frame({}, {"x": array})
            header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
            header = json.loads(frame[FRAME_PREFIX_LEN:
                                      FRAME_PREFIX_LEN + header_len])
            assert header["arrays"]["x"]["enc"] == "raw"

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_object_arrays_refused_at_encode(self):
        with pytest.raises(CodecError, match="non-wire dtype"):
            encode_frame({}, {"x": np.array([object()])})


class TestHostileFrames:
    """Every malformed frame fails typed, before any allocation."""

    def test_truncated_prefix(self):
        with pytest.raises(CodecError, match="truncated frame prefix"):
            read_frame(io.BytesIO(b"RBF1\x01"))

    def test_bad_magic(self):
        prefix = _PREFIX.pack(b"EVIL", 2, 0)
        with pytest.raises(CodecError, match="bad frame magic"):
            parse_frame_prefix(prefix)

    def test_oversized_header_length(self):
        prefix = _PREFIX.pack(FRAME_MAGIC, MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(CodecError, match="header length"):
            parse_frame_prefix(prefix)

    def test_oversized_body_length(self):
        """A 16-exabyte length prefix is rejected from 16 bytes alone."""
        prefix = _PREFIX.pack(FRAME_MAGIC, 2, 1 << 60)
        with pytest.raises(CodecError, match="body length"):
            parse_frame_prefix(prefix)
        assert MAX_BODY_BYTES < 1 << 60

    def test_truncated_header(self):
        frame = encode_frame({"op": "ping"}, {})
        with pytest.raises(CodecError, match="truncated in header"):
            read_frame(io.BytesIO(frame[:FRAME_PREFIX_LEN + 3]))

    def test_truncated_body(self, rng):
        frame = encode_frame({}, {"x": rng.random(32)})
        with pytest.raises(CodecError, match="truncated in body"):
            read_frame(io.BytesIO(frame[:-10]))

    def test_header_not_json(self):
        raw = b"\xff\xfenot json"
        frame = _PREFIX.pack(FRAME_MAGIC, len(raw), 0) + raw
        with pytest.raises(CodecError, match="not valid JSON"):
            read_frame(io.BytesIO(frame))

    def test_dtype_smuggling_rejected(self):
        """object/void/structured dtypes never reach np.dtype."""
        for dtype in ("object", "O", "V8", "float64,float64", "U16",
                      "complex128", None, 7):
            frame = frame_of(
                {"payload": {}, "arrays": {
                    "x": {"dtype": dtype, "shape": [1], "enc": "raw",
                          "offset": 0, "nbytes": 8}}},
                body=b"\0" * 8)
            with pytest.raises(CodecError, match="smuggles dtype"):
                read_frame(io.BytesIO(frame))

    def test_shape_byte_accounting_enforced(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [4], "enc": "raw",
                      "offset": 0, "nbytes": 8}}},  # 4 floats need 32
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="holds 8 bytes"):
            read_frame(io.BytesIO(frame))

    def test_declared_elements_over_cap(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [1 << 40],
                      "enc": "raw", "offset": 0, "nbytes": 8}}},
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="over cap"):
            read_frame(io.BytesIO(frame))

    def test_buffer_slice_outside_body(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [1], "enc": "raw",
                      "offset": 4096, "nbytes": 8}}},
            body=b"\0" * 8)
        with pytest.raises(CodecError, match="outside the"):
            read_frame(io.BytesIO(frame))

    def test_coo_index_out_of_range(self):
        indices = np.array([3], dtype=np.uint32).tobytes()
        values = np.array([1.0]).tobytes()
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [2], "enc": "coo",
                      "count": 1, "index_offset": 0, "index_nbytes": 4,
                      "offset": 4, "nbytes": 8}}},
            body=indices + values)
        with pytest.raises(CodecError, match="index out of range"):
            read_frame(io.BytesIO(frame))

    def test_unknown_encoding(self):
        frame = frame_of(
            {"payload": {}, "arrays": {
                "x": {"dtype": "float64", "shape": [0],
                      "enc": "pickle", "offset": 0, "nbytes": 0}}})
        with pytest.raises(CodecError, match="unknown encoding"):
            read_frame(io.BytesIO(frame))

    def test_deeply_nested_header(self):
        """Nesting that would overflow the JSON parser's stack."""
        raw = b"[" * 100_000
        with pytest.raises(CodecError, match="not valid JSON"):
            decode_frame(raw, b"")

    def test_shapes_numpy_cannot_build(self):
        for shape in ([0, 1 << 62], [0, 1 << 31, 1 << 31], [1] * 70):
            frame = frame_of(
                {"payload": {}, "arrays": {
                    "x": {"dtype": "float64", "shape": shape,
                          "enc": "raw", "offset": 0, "nbytes": 0}}})
            with pytest.raises(CodecError):
                read_frame(io.BytesIO(frame))

    def test_header_missing_sections(self):
        raw = json.dumps({"just": "stuff"}).encode()
        with pytest.raises(CodecError, match="must carry"):
            decode_frame(raw, b"")


#: Every dtype the codec accepts on the wire.
WIRE_DTYPES = ["bool", "int8", "int16", "int32", "int64", "uint8",
               "uint16", "uint32", "uint64", "float16", "float32",
               "float64"]

#: Any JSON value, for header fields a hostile peer controls.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)


def maybe(strategy):
    """A plausible field value, or any JSON value at all."""
    return strategy | json_values


descriptors = st.fixed_dictionaries({}, optional={
    "dtype": maybe(st.sampled_from(WIRE_DTYPES + ["object", "V8",
                                                  "complex128"])),
    "shape": maybe(st.lists(st.integers(-2, 1 << 40), max_size=70)
                   | st.lists(st.integers(0, 6), max_size=4)),
    "enc": maybe(st.sampled_from(["raw", "coo", "pickle"])),
    "count": maybe(st.integers(-1, 300)),
    "offset": maybe(st.integers(-1, 300)),
    "nbytes": maybe(st.integers(-1, 300)),
    "index_offset": maybe(st.integers(-1, 300)),
    "index_nbytes": maybe(st.integers(-1, 300)),
})


def decodes_or_codec_error(decode, *args) -> None:
    """``decode(*args)`` returns, or fails with CodecError — never with
    any other exception."""
    try:
        decode(*args)
    except CodecError:
        pass


class TestStructuredErrors:
    def test_known_types_resurrect_and_the_rest_fall_back(self):
        """One error codec for both TCP surfaces: a mapped class comes
        back as itself, any other as the caller's fallback with the
        sender's class name kept; a bare string or a missing field
        still yields the fallback."""
        types = {"DeploymentError": DeploymentError}
        payload = error_payload(DeploymentError("no deployment 3"))
        assert payload == {"type": "DeploymentError",
                           "message": "no deployment 3"}
        error = error_from_payload(payload, types, RemoteExecutionError)
        assert type(error) is DeploymentError
        assert str(error) == "no deployment 3"
        other = error_from_payload(error_payload(ValueError("bad op")),
                                   types, ServeError)
        assert type(other) is ServeError
        assert str(other) == "ValueError: bad op"
        legacy = error_from_payload("server error", types, ServeError)
        assert type(legacy) is ServeError
        assert str(legacy) == "server error"
        assert type(error_from_payload(
            None, types, RemoteExecutionError)) is RemoteExecutionError

    @pytest.mark.parametrize("types,fallback", [
        (_REMOTE_ERROR_TYPES, RemoteExecutionError),
        (_ERROR_TYPES, ServeError),
    ], ids=["fabric", "serve"])
    def test_each_surface_resurrects_its_own_types(self, types,
                                                   fallback):
        """Every class in a surface's map comes back as itself with the
        sender's message untouched; a class outside it comes back as
        that surface's fallback."""
        for name, cls in types.items():
            assert name == cls.__name__
            error = error_from_payload(error_payload(cls("why")), types,
                                       fallback)
            assert type(error) is cls
            assert str(error) == "why"
        stray = error_from_payload(error_payload(RuntimeError("why")),
                                   types, fallback)
        assert type(stray) is fallback
        assert str(stray) == "RuntimeError: why"

    def test_misrouted_item_fails_alone_as_the_senders_error(self, rng):
        """One misrouted item in an ``execute_many`` chunk comes back to
        the driver as the worker's own ``DeploymentError`` (same
        message), and its sibling's result is intact."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=2)
        message = {"op": "execute_many",
                   "items": [{"item_id": items[0].item_id,
                              "deployment": 0},
                             {"item_id": items[1].item_id,
                              "deployment": 3}]}
        arrays = {f"images:{position}": item.images
                  for position, item in enumerate(items)}
        reply, out = read_frame(io.BytesIO(encode_frame(
            *_handle_request([deployment], message, arrays))))
        worker = RemoteWorker("127.0.0.1", 1, name="probe")
        ok, failed = worker._decode_chunk(reply, out,
                                          _RemoteFlight(list(items)))
        np.testing.assert_array_equal(
            ok.logits, execute_item([deployment], items[0]).logits)
        with pytest.raises(DeploymentError) as local:
            execute_item([deployment], WorkItem(
                item_id=items[1].item_id, deployment=3,
                images=items[1].images))
        assert type(failed) is DeploymentError
        assert str(failed) == str(local.value)


def wire_arrays(dtype):
    """Arrays of ``dtype``: dense draws and mostly-zero ones (so both
    the raw and the COO encoding are exercised), any shape including
    zero-size and 0-d."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                              max_side=24)
    elements = hnp.from_dtype(np.dtype(dtype))
    return (hnp.arrays(dtype, shapes, elements=elements)
            | hnp.arrays(dtype, shapes, elements=elements,
                         fill=st.just(np.zeros((), dtype)[()])))


class TestFrameFuzz:
    """RBF1 is the only parser facing the network: whatever arrives,
    decoding returns or raises CodecError."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_arbitrary_header_and_body_bytes(self, header, body):
        decodes_or_codec_error(decode_frame, header, body)
        decodes_or_codec_error(parse_frame_prefix, header[:16])
        decodes_or_codec_error(read_frame, io.BytesIO(header + body))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=4), descriptors, max_size=3),
           maybe(st.dictionaries(st.text(max_size=4), json_values,
                                 max_size=3)),
           st.binary(max_size=320))
    def test_hostile_descriptors(self, arrays, payload, body):
        header = json.dumps({"payload": payload, "arrays": arrays})
        decodes_or_codec_error(decode_frame, header.encode(), body)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_valid_frames(self, data):
        dtype = data.draw(st.sampled_from(WIRE_DTYPES))
        array = data.draw(wire_arrays(dtype))
        frame = bytearray(encode_frame(
            {"op": "execute", "item_id": 7}, {"images": array}))
        for _ in range(data.draw(st.integers(1, 4))):
            position = data.draw(st.integers(0, len(frame) - 1))
            action = data.draw(st.sampled_from(["flip", "cut", "insert"]))
            if action == "flip":
                frame[position] ^= data.draw(st.integers(1, 255))
            elif action == "cut":
                del frame[position:position + data.draw(
                    st.integers(1, 8))]
                if not frame:
                    break
            else:
                frame[position:position] = data.draw(
                    st.binary(min_size=1, max_size=8))
        decodes_or_codec_error(read_frame, io.BytesIO(bytes(frame)))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0.0, None, 1e9]))
    def test_every_wire_dtype_round_trips_bit_identically(
            self, data, coo_ratio):
        """``coo_ratio`` 0 forces raw buffers, 1e9 picks COO whenever
        the array is large enough, ``None`` lets the encoder choose."""
        arrays = {dtype: data.draw(wire_arrays(dtype))
                  for dtype in data.draw(st.lists(
                      st.sampled_from(WIRE_DTYPES), min_size=1,
                      max_size=4, unique=True))}
        payload, decoded = read_frame(io.BytesIO(encode_frame(
            {"op": "fuzz"}, arrays, coo_ratio=coo_ratio)))
        assert payload == {"op": "fuzz"}
        assert decoded.keys() == arrays.keys()
        for name, array in arrays.items():
            assert decoded[name].dtype == array.dtype
            assert decoded[name].shape == array.shape
            # Byte comparison: NaN payloads and -0.0 must survive too.
            assert decoded[name].tobytes() == array.tobytes()


@functools.cache
def execute_reply():
    """A genuine two-item ``execute_many`` exchange, as the driver reads
    it: ``(items, reply payload, reply arrays, local results)``."""
    rng = np.random.default_rng(7)
    deployment = tiny_deployment(rng)
    items = make_items(rng, deployment, count=2)
    message = {"op": "execute_many",
               "items": [{"item_id": item.item_id, "deployment": 0}
                         for item in items]}
    arrays = {f"images:{position}": item.images
              for position, item in enumerate(items)}
    reply, out = _handle_request([deployment], message, arrays)
    reply, out = read_frame(io.BytesIO(encode_frame(reply, out)))
    local = [execute_item([deployment], item) for item in items]
    return items, reply, out, local


def decode_reply(reply: dict, arrays: dict) -> list:
    """The driver side of a chunk: decode a reply for execute_reply's
    items, after one more trip through the frame codec."""
    items = execute_reply()[0]
    reply, arrays = read_frame(io.BytesIO(encode_frame(reply, arrays)))
    worker = RemoteWorker("127.0.0.1", 1, name="probe")
    return worker._decode_chunk(reply, arrays, _RemoteFlight(list(items)))


def mutated(entry_fields=None, **arrays_changed):
    """execute_reply's payload and arrays with result 1 altered:
    ``entry_fields`` overrides header fields, an array set to None is
    dropped, any other value replaces it."""
    _, reply, arrays, _ = execute_reply()
    reply = json.loads(json.dumps(reply))
    reply["results"][1].update(entry_fields or {})
    arrays = dict(arrays)
    for name, value in arrays_changed.items():
        if value is None:
            del arrays[f"{name}:1"]
        else:
            arrays[f"{name}:1"] = value
    return reply, arrays


class TestBatchTraceReplies:
    def test_reply_carries_trace_arrays_not_json(self):
        _, reply, arrays, local = execute_reply()
        for position, result in enumerate(local):
            entry = reply["results"][position]
            assert "traces" not in entry
            assert arrays[f"adder_ops:{position}"].dtype == np.int64
            np.testing.assert_array_equal(arrays[f"adder_ops:{position}"],
                                          result.trace.adder_ops)
            np.testing.assert_array_equal(arrays[f"charges:{position}"],
                                          result.trace.charges)
        for got, want in zip(decode_reply(reply, arrays), local):
            assert isinstance(got, WorkResult)
            assert got.trace == want.trace
            assert got.merged_trace() == want.merged_trace()

    @pytest.mark.parametrize("name", ["logits", "charges", "adder_ops"])
    def test_missing_array(self, name):
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(**{name: None}))

    @pytest.mark.parametrize("name,dtype", [
        ("charges", np.int32), ("adder_ops", np.float64),
        ("adder_ops", np.uint64)])
    def test_trace_array_not_int64(self, name, dtype):
        arrays = execute_reply()[2]
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(**{name: arrays[f"{name}:1"]
                                     .astype(dtype)}))

    def test_adder_ops_rows_differ_from_logits(self):
        arrays = execute_reply()[2]
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(adder_ops=arrays["adder_ops:1"][:-1]))
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(logits=arrays["logits:1"][:-1]))

    def test_columns_differ_from_layer_list(self):
        reply, arrays = execute_reply()[1:3]
        layers = reply["results"][1]["layers"]
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(adder_ops=arrays["adder_ops:1"][:, :-1]))
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated(charges=arrays["charges:1"][:-1]))
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated({"layers": layers[:-1]}))
        with pytest.raises(WorkerCrashError):
            decode_reply(*mutated({"layers": "conv1"}))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_reply_shapes(self, data):
        """Whatever shape, dtype or header a result's trace arrives in,
        decoding returns a consistent trace or raises WorkerCrashError."""
        _, reply, arrays, _ = execute_reply()
        changes = {}
        fields = {}
        for name in data.draw(st.lists(
                st.sampled_from(["logits", "charges", "adder_ops",
                                 "layers", "input_cycles"]),
                min_size=1, max_size=3, unique=True)):
            if name in ("layers", "input_cycles"):
                fields[name] = data.draw(maybe(st.lists(
                    st.lists(st.text(max_size=4), min_size=2,
                             max_size=2), max_size=12)))
                continue
            action = data.draw(st.sampled_from(["drop", "retype",
                                                "reshape"]))
            if action == "drop":
                changes[name] = None
            elif action == "retype":
                changes[name] = arrays[f"{name}:1"].astype(
                    data.draw(st.sampled_from(WIRE_DTYPES)))
            else:
                changes[name] = data.draw(hnp.arrays(
                    np.int64, hnp.array_shapes(min_dims=0, max_dims=3,
                                               min_side=0, max_side=12)))
        try:
            outcomes = decode_reply(*mutated(fields, **changes))
        except WorkerCrashError:
            return
        for outcome in outcomes:
            trace = outcome.trace
            assert trace.charges.dtype == trace.adder_ops.dtype == np.int64
            assert trace.charges.shape == (len(trace.layers),
                                           len(CHARGE_COLUMNS))
            assert trace.adder_ops.shape == (outcome.logits.shape[0],
                                             len(trace.layers))


class TestFrameNegotiation:
    def test_binary_negotiated_by_default(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=3)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        server = WorkerServer().start()
        try:
            worker = RemoteWorker("127.0.0.1", server.port)
            results, _ = run_group([worker], deployment, items)
            for base, other in zip(baseline, results):
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        finally:
            server.close()


def large_deployment() -> Deployment:
    """A deployment whose pickle outgrows the 1 MiB header cap (one
    256 x 4608 int8 linear layer), so it can only deploy through the
    frame body."""
    net = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
         ("linear", 4608), ("linear", 10)],
        input_shape=(1, 16, 16), num_steps=3, seed=5)
    deployment = Deployment(network=net,
                            config=AcceleratorConfig.for_network(net))
    assert len(pickle.dumps([deployment])) > MAX_HEADER_BYTES
    return deployment


def assert_matches_reference(deployment, items, results):
    """Remote results equal a serial run on the ``reference`` engine."""
    reference = Deployment(network=deployment.network,
                           config=deployment.config, backend="reference")
    baseline, _ = run_group([ThreadWorker()], reference, items)
    for base, other in zip(baseline, results):
        np.testing.assert_array_equal(base.logits, other.logits)
        assert base.merged_trace() == other.merged_trace()


class _LaneCollector:
    """The one method :class:`GroupListener` calls on its group: hands
    each admitted join lane to the test instead of scheduling onto it."""

    def __init__(self):
        self.lanes = queue.Queue()

    def add_lane(self, worker):
        self.lanes.put(worker)
        return worker.name


def assert_refused_with_codec_error(port: int, line: bytes) -> None:
    """A v1 JSON-lines peer gets one CodecError frame, then EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(line)
        with sock.makefile("rb") as reader:
            reply, _ = read_frame(reader)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "CodecError"
            assert "magic" in reply["error"]["message"]
            assert reader.read() == b""  # the server hung up


#: Set by :func:`_loud_unpickle` — proof a blob was (not) unpickled.
_UNPICKLED: list = []


def _loud_unpickle():
    _UNPICKLED.append(True)
    raise RuntimeError("deploy blob was unpickled")


class _LoudBlob:
    def __reduce__(self):
        return _loud_unpickle, ()


class TestOneFraming:
    """RBF1 from the first byte on every fabric connection."""

    def test_deploy_over_header_cap_on_listen_lane(self, rng):
        """A >1 MiB deployment table rides the frame body, not a base64
        header field, and executes bit-identically to reference."""
        deployment = large_deployment()
        items = make_items(rng, deployment, count=2, images_each=2)
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                worker.deploy([deployment])
                results = [worker.execute(item) for item in items]
            finally:
                worker.close()
        assert_matches_reference(deployment, items, results)

    def test_deploy_over_header_cap_on_join_lane(self, rng):
        deployment = large_deployment()
        items = make_items(rng, deployment, count=2, images_each=2)
        collector = _LaneCollector()
        with GroupListener(collector, "127.0.0.1", 0) as listener:
            joiner = threading.Thread(
                target=join_fabric, args=("127.0.0.1", listener.port),
                kwargs={"name": "big"}, daemon=True)
            joiner.start()
            worker = collector.lanes.get(timeout=30)
            try:
                worker.deploy([deployment])
                results = worker.execute_many(items)
            finally:
                worker.close()
        joiner.join(timeout=10)
        assert not joiner.is_alive()
        assert_matches_reference(deployment, items, results)

    def test_json_line_client_refused_by_worker_server(self, rng):
        deployment = tiny_deployment(rng)
        with WorkerServer() as server:
            assert_refused_with_codec_error(server.port,
                                            b'{"op": "ping"}\n')
            # The server keeps serving other connections.
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                worker.deploy([deployment])
                assert worker.ping()
            finally:
                worker.close()

    def test_json_line_joiner_refused_by_group_listener(self):
        collector = _LaneCollector()
        with GroupListener(collector, "127.0.0.1", 0) as listener:
            assert_refused_with_codec_error(
                listener.port, b'{"op": "join", "name": "v1"}\n')
            assert collector.lanes.empty()
            # A real joiner is still admitted afterwards.
            joiner = threading.Thread(
                target=join_fabric, args=("127.0.0.1", listener.port),
                kwargs={"name": "rbf1"}, daemon=True)
            joiner.start()
            worker = collector.lanes.get(timeout=30)
            assert worker.name == "rbf1"
            assert worker.ping()
            worker.close()
        joiner.join(timeout=10)
        assert not joiner.is_alive()

    def test_bad_token_deploy_rejected_before_unpickling(self):
        blob = np.frombuffer(pickle.dumps(_LoudBlob()), dtype=np.uint8)
        _UNPICKLED.clear()
        with WorkerServer(token="s3cret") as server, \
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=10) as sock, \
                sock.makefile("rb") as reader:
            for token in (None, "wrong"):
                sock.sendall(encode_frame(
                    attach_token({"op": "deploy"}, token),
                    {"blob": blob}))
                reply, _ = read_frame(reader)
                assert reply["error"]["type"] == "FabricAuthError"
            assert _UNPICKLED == []
            # Control: with the right token the same blob IS unpickled,
            # and fails loudly — so the refusals above came first.
            sock.sendall(encode_frame(
                attach_token({"op": "deploy"}, "s3cret"),
                {"blob": blob}))
            reply, _ = read_frame(reader)
            assert reply["error"]["type"] == "RuntimeError"
            assert _UNPICKLED == [True]


def assert_fabric_socket_options(sock: socket.socket) -> None:
    """Nagle off and keepalive on, as every fabric socket carries."""
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE)


class TestSocketOptions:
    """Both ends of every fabric connection, listen and join path."""

    def test_listen_path_both_ends(self, rng):
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                worker.deploy([tiny_deployment(rng)])
                assert_fabric_socket_options(worker._sock)
                with server._conn_lock:
                    connections = list(server._connections)
                assert len(connections) == 1
                for conn in connections:
                    assert_fabric_socket_options(conn)
            finally:
                worker.close()

    def test_join_path_both_ends(self, monkeypatch):
        """The admitted lane's socket is read directly; the joiner's
        socket closes when its session ends, so a spy on
        ``_configure_socket`` reads it while it is live."""
        configured = []
        original = remote_module._configure_socket

        def spy(sock):
            original(sock)
            configured.append(
                (threading.current_thread().name,
                 sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY),
                 sock.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE)))

        monkeypatch.setattr(remote_module, "_configure_socket", spy)
        collector = _LaneCollector()
        with GroupListener(collector, "127.0.0.1", 0) as listener:
            joiner = threading.Thread(
                target=join_fabric, args=("127.0.0.1", listener.port),
                kwargs={"name": "opts"}, name="joiner", daemon=True)
            joiner.start()
            worker = collector.lanes.get(timeout=30)
            try:
                assert worker.ping()
                assert_fabric_socket_options(worker._sock)
            finally:
                worker.close()
        joiner.join(timeout=10)
        assert not joiner.is_alive()
        joined = [options for options in configured
                  if options[0] == "joiner"]
        assert len(joined) == 1
        _, nodelay, keepalive = joined[0]
        assert nodelay and keepalive


#: LeNet-5 at the paper's geometry: a chunk of event frames costs a
#: few milliseconds, well inside the driver's delayed-ACK timer.
LENET5_LAYERS = [("conv", 6, 5, 1, 0), ("pool", 2), ("conv", 16, 5, 1, 0),
                 ("pool", 2), ("conv", 120, 5, 1, 0), ("flatten",),
                 ("linear", 120), ("linear", 84), ("linear", 10)]


class TestPipelinedReplyLatency:
    """A reply written while the previous one is unacknowledged leaves
    at once: under Nagle it waited for the driver's delayed ACK (about
    40 ms on Linux) whenever the chunk cost less than that."""

    def test_second_reply_follows_the_first_promptly(self, rng,
                                                     open_credit):
        net = performance_network(LENET5_LAYERS, (1, 32, 32),
                                  num_steps=4)
        deployment = Deployment(
            network=net, config=AcceleratorConfig.for_network(net),
            backend="sparse")
        collected = []

        class TimedLane(RemoteWorker):
            def collect_chunk(self):
                results = super().collect_chunk()
                collected.append(time.perf_counter())
                return results

        gaps = []
        with WorkerServer() as server:
            lane = TimedLane("127.0.0.1", server.port, name="timed")
            with WorkerGroup([lane], deployments=[deployment],
                             max_batch_items=3) as group:
                open_credit(group)
                for _ in range(9):
                    items = [WorkItem(item_id=index, deployment=0,
                                      images=probe_batch(
                                          (1, 32, 32), 0.03, 64, rng))
                             for index in range(6)]
                    collected.clear()
                    pipelined = group.metrics.pipelined
                    group.run(items)
                    # Two 3-item chunks, the second sent before the
                    # first reply came back.
                    assert len(collected) == 2
                    assert group.metrics.pipelined > pipelined
                    gaps.append(collected[1] - collected[0])
        assert statistics.median(gaps) < 0.020, gaps


def golden_cases() -> dict[str, np.ndarray]:
    """Arrays whose encoded frames are pinned by digest: the COO path's
    bit-pattern sparsity (signed zeros, NaN payloads, subnormals), every
    width of its index search and both sides of the COO/raw cut."""
    rng = np.random.default_rng(2022)
    plane = np.where(rng.random((8, 1, 28, 28)) < 0.05,
                     rng.random((8, 1, 28, 28)), 0.0)

    def signed_zeros_and_nans(dtype, nan_bits):
        width = np.dtype(dtype).itemsize
        bits = np.zeros(300, dtype=f"u{width}")
        bits[[3, 77]] = 1 << (8 * width - 1)           # -0.0
        bits[[10, 250]] = nan_bits                     # NaN payloads
        return bits.view(dtype)

    subnormals = np.zeros(300, dtype=np.uint16)
    subnormals[[0, 1, 299]] = [0x0001, 0x8001, 0x03ff]
    small = np.zeros(512, dtype=np.int8)
    small[[5, 6, 400]] = [-128, 1, 127]
    flags = np.zeros(512, dtype=bool)
    flags[[0, 511]] = True

    def threshold(nnz):
        array = np.zeros(256)
        array[:nnz] = np.arange(1, nnz + 1)
        return array

    return {
        "event_plane_f64": plane,
        "signed_zero_nan_f32": signed_zeros_and_nans("float32",
                                                     0x7fc00123),
        "signed_zero_nan_f64": signed_zeros_and_nans("float64",
                                                     0x7ff8000000000abc),
        "subnormal_f16": subnormals.view(np.float16),
        "sparse_i8": small,
        "sparse_bool": flags,
        "empty_f64": np.zeros((0, 3)),
        "scalar_0d": np.array(-0.0),
        # 153 float64 entries are 1836 COO bytes, under 0.9 x 2048.
        "coo_at_threshold": threshold(153),
        "raw_past_threshold": threshold(154),
    }


#: sha256 of ``encode_frame({"case": name}, {"a": array})``, computed
#: with the encoder that searched nonzeros on the integer view itself.
GOLDEN_FRAME_SHA256 = {
    "event_plane_f64":
        "d2f41aa5d88ec0a798475e26788e933baa4147de3b52f9df3bce8b41583580eb",
    "signed_zero_nan_f32":
        "e7bf1c9b1ffaffd051a50039d19e132601a57632cf9b1ace2f2f5af5c8ece221",
    "signed_zero_nan_f64":
        "610e9c408b00cb9ab0afc72b11ac0386c99bf952a81ed698f88cbc5f956e13dd",
    "subnormal_f16":
        "9fbb18c5b8b3054cbd23d105410701976b259c8545a127eafcbaccecbb17874a",
    "sparse_i8":
        "c85d8c92f035f565a21699b24bbf70ff4d8d293082ee793c227b1b20a4e8ace9",
    "sparse_bool":
        "b59afaa7557c3d3dbe1a8457e8e3414215ef6ea5d03408bcfc8545687276e909",
    "empty_f64":
        "ab2dbaf511ca98b46d0815ae5eed72b854106fa4a0db1c5ca3fbed30469f29fc",
    "scalar_0d":
        "a26f8e44920b1834c5ce0542cb392a97e47dba2c3238cb783963e7a08add8e17",
    "coo_at_threshold":
        "e41f358b7ecc659d0fc2919254d2326e48cc853cc08d1d8f4a803069881eef80",
    "raw_past_threshold":
        "994b029d6d62ca80b60bfc21db20842651b0c5d142d59b64be39283206b9aa10",
}


class TestGoldenEncoderBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAME_SHA256))
    def test_frame_bytes_pinned(self, name):
        array = golden_cases()[name]
        frame = encode_frame({"case": name}, {"a": array})
        assert hashlib.sha256(frame).hexdigest() \
            == GOLDEN_FRAME_SHA256[name]
        _, decoded = read_frame(io.BytesIO(frame))
        assert decoded["a"].dtype == array.dtype
        assert decoded["a"].tobytes() == array.tobytes()

    def test_threshold_cases_straddle_the_cut(self):
        cases = golden_cases()
        for name, encoding in (("coo_at_threshold", "coo"),
                               ("raw_past_threshold", "raw")):
            frame = encode_frame({"case": name}, {"a": cases[name]})
            header_len, _ = parse_frame_prefix(frame[:FRAME_PREFIX_LEN])
            header = json.loads(frame[FRAME_PREFIX_LEN:
                                      FRAME_PREFIX_LEN + header_len])
            assert header["arrays"]["a"]["enc"] == encoding


class TestShmLane:
    def test_shm_and_pickle_paths_bit_identical(self, rng,
                                                monkeypatch):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        with_shm, _ = run_group([ProcessWorker()], deployment, items)
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm_available()
        without, _ = run_group([ProcessWorker()], deployment, items)
        for a, b in zip(with_shm, without):
            np.testing.assert_array_equal(a.logits, b.logits)
            assert a.merged_trace() == b.merged_trace()

    def test_wide_output_layer_falls_back_to_pickled_logits(self, rng):
        """Logits wider than the reply region still come back exact."""
        from repro.core import AcceleratorConfig
        from repro.models import performance_network
        from repro.runtime import Deployment
        from repro.runtime.workers import _REPLY_CLASSES_CAP
        net = performance_network(
            [("flatten",), ("linear", _REPLY_CLASSES_CAP + 16)],
            input_shape=(1, 6, 6), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        deployment = Deployment(
            network=net, config=AcceleratorConfig.for_network(net))
        items = make_items(rng, deployment, count=2)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        results, _ = run_group([ProcessWorker()], deployment, items)
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)


class TestBatchedSubmission:
    def test_submit_many_matches_serial(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=10)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        results, metrics = run_group([ProcessWorker()], deployment,
                                     items, max_batch_items=4)
        assert metrics.batched > 0
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_batched_task_error_fails_only_its_item(self, rng):
        deployment = tiny_deployment(rng)
        good = make_items(rng, deployment, count=3)
        bad = WorkItem(item_id=99, deployment=7,  # no such deployment
                       images=good[0].images)
        with WorkerGroup([ProcessWorker()],
                         deployments=[deployment]) as group:
            futures = group.submit_many(good + [bad])
            for future, item in zip(futures[:3], good):
                result = future.result(timeout=60)
                assert result.item_id == item.item_id
            with pytest.raises(DeploymentError):
                futures[3].result(timeout=60)
            assert group.metrics.worker_crashes == 0

    def test_remote_execute_many_one_frame_roundtrip(self, rng):
        """A chunk to a remote worker comes back complete and ordered."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=5)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        server = WorkerServer().start()
        try:
            results, metrics = run_group(
                [RemoteWorker("127.0.0.1", server.port)], deployment,
                items, max_batch_items=5)
            assert metrics.batched > 0
            for base, other in zip(baseline, results):
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        finally:
            server.close()

    def test_max_batch_items_validated(self, rng):
        deployment = tiny_deployment(rng)
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            WorkerGroup([ThreadWorker()], deployments=[deployment],
                        max_batch_items=0)
