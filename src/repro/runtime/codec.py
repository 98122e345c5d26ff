"""RBF1: the one wire framing of the worker fabric and the serving transport.

Both TCP surfaces (:mod:`repro.runtime.remote` and
:mod:`repro.serve.transport`) speak length-prefixed frames from a
connection's first byte, encoded by :func:`encode_frame` and parsed by
:func:`decode_frame` / :func:`read_frame`.  A frame carries a small JSON
header (the message: op, ids, knobs, auth proof) plus raw ndarray
buffers appended verbatim.  No base64, no pickle for arrays; decoding
maps each buffer back with ``np.frombuffer`` (zero copies), and arrays
whose contents are mostly zeros — spike-sparse workloads, the paper's
whole premise — ship as lossless COO (flat indices + values) when that
is smaller.  Either representation rebuilds the array byte-for-byte, so
remote lanes stay inside the fabric's bit-exactness contract.

Frame layout (all integers little-endian)::

    magic   4 bytes  b"RBF1"
    hlen    4 bytes  uint32   header length
    blen    8 bytes  uint64   body length
    header  hlen bytes        JSON: {"payload": {...}, "arrays": {...}}
    body    blen bytes        concatenated raw buffers

Every structural property — magic, both lengths against hard caps, each
array descriptor's dtype (whitelist), shape and byte accounting — is
validated **before any buffer is allocated or copied**; violations raise
:class:`~repro.errors.CodecError`.  A hostile peer can therefore make a
connection fail typed, but cannot make it allocate gigabytes or
interpret bytes as objects.  A peer speaking anything else (a JSON line,
an HTTP request) fails the magic check on its first four bytes.

The fabric's ``deploy`` op ships its deployment table as a pickle in a
``uint8`` array of the frame body.  **Pickles are code-adjacent data:
only exchange them between mutually trusted hosts.**  The worker fabric
is a lab/cluster tool, not an internet-facing service.  An optional
shared secret softens that caveat: with a token configured
(``repro worker --listen --token T``), every payload must carry a valid
``auth`` field (:func:`attach_token`) or the server rejects it before
anything is unpickled (:func:`check_token`).  The auth value is an HMAC
of the token, compared in constant time — a fabric membership proof
against accidental or opportunistic connections, not a substitute for a
trusted network (payloads are neither encrypted nor replay-protected).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct

import numpy as np

from repro.errors import CodecError

__all__ = [
    "DEFAULT_COO_RATIO",
    "FRAME_MAGIC",
    "FRAME_PREFIX_LEN",
    "attach_token",
    "check_token",
    "decode_frame",
    "encode_frame",
    "error_from_payload",
    "error_payload",
    "fabric_auth",
    "parse_frame_prefix",
    "read_frame",
]


#: Cached telemetry children, one per direction — allocated lazily on
#: first use, so the codec stays import-cheap and the hot path pays one
#: dict lookup + one counter add per frame.
_BYTE_COUNTERS: dict[str, object] = {}


def _count_bytes(direction: str, nbytes: int) -> None:
    child = _BYTE_COUNTERS.get(direction)
    if child is None:
        from repro.telemetry import get_registry
        child = get_registry().counter(
            "repro_codec_bytes_total",
            "Bytes crossing the wire codec, by direction",
            labelnames=("direction",),
        ).labels(direction=direction)
        _BYTE_COUNTERS[direction] = child
    child.inc(nbytes)


# ----------------------------------------------------------------------
# RBF1 frames
# ----------------------------------------------------------------------
FRAME_MAGIC = b"RBF1"
FRAME_PREFIX_LEN = 16                    # magic + uint32 hlen + uint64 blen
_PREFIX_STRUCT = struct.Struct("<4sIQ")

#: Hard caps enforced before any allocation.  Generous for this fabric
#: (the largest legitimate frames are sweep shards of float64 images)
#: yet small enough that a hostile length prefix cannot OOM the host.
MAX_HEADER_BYTES = 1 << 20               # 1 MiB of JSON header
MAX_BODY_BYTES = 1 << 31                 # 2 GiB of array buffers
_MAX_NDIM = 32                           # numpy itself stops at 64

#: The only dtypes allowed on the wire.  Names are matched as exact
#: strings *before* ``np.dtype`` ever sees attacker input, so a frame
#: cannot smuggle object/void/structured dtypes (arbitrary-code or
#: arbitrary-width surprises) through the decoder.
_WIRE_DTYPES = frozenset({
    "bool",
    "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64",
    "float16", "float32", "float64",
})

#: Below this density a numeric array ships as COO (indices + values);
#: chosen so the sparse form is only used when it is actually smaller
#: (uint32 index + value per element vs. itemsize per element, plus
#: slack for the longer descriptor).
_SPARSE_MIN_ELEMENTS = 256

#: An array ships as COO when its COO bytes come in under this fraction
#: of the raw buffer (slack covers the longer descriptor).  A fixed
#: constant: the choice only moves wire bytes, since either
#: representation rebuilds the array byte-for-byte.  ``coo_ratio=`` on
#: :func:`encode_frame` overrides it for one frame.
DEFAULT_COO_RATIO = 0.9


def _sparse_wins(array: np.ndarray, nnz: int,
                 ratio: float | None = None) -> bool:
    """Whether COO encoding beats the raw buffer for this array."""
    if array.size < _SPARSE_MIN_ELEMENTS or array.size >= 1 << 32:
        return False
    coo_bytes = nnz * (4 + array.itemsize)
    return coo_bytes < array.nbytes * (
        DEFAULT_COO_RATIO if ratio is None else ratio)


def encode_frame(payload: dict,
                 arrays: dict[str, np.ndarray] | None = None,
                 *, coo_ratio: float | None = None) -> bytes:
    """One RBF1 frame: JSON header + raw array buffers.

    ``arrays`` ride outside the JSON as contiguous buffers (or lossless
    COO index/value pairs when mostly zero); ``payload`` must be
    JSON-serializable.  ``coo_ratio`` overrides the COO-vs-raw
    threshold for this frame only.  The inverse is :func:`decode_frame`.
    """
    descriptors: dict[str, dict] = {}
    buffers: list[bytes | memoryview] = []
    offset = 0

    def _append(buffer: np.ndarray) -> tuple[int, int]:
        nonlocal offset
        # Flat first: memoryview refuses to cast an empty N-d view.
        view = memoryview(buffer.reshape(-1)).cast("B")
        start, nbytes = offset, view.nbytes
        buffers.append(view)
        offset += nbytes
        return start, nbytes

    for name, array in (arrays or {}).items():
        array = np.asarray(array, order="C")   # keeps 0-d arrays 0-d
        dtype = str(array.dtype)
        if dtype not in _WIRE_DTYPES:
            raise CodecError(
                f"array {name!r} has non-wire dtype {dtype!r}")
        descriptor = {"dtype": dtype, "shape": list(array.shape)}
        flat = array.reshape(-1)
        # Sparsity by bit pattern, not value: -0.0 is "zero" to
        # count_nonzero but must still ship to round-trip bit-exactly.
        # One bool mask serves both the count and the index search,
        # which runs several times faster on it than on wide integers.
        nonzero = flat.view(f"u{flat.itemsize}") != 0
        nnz = int(np.count_nonzero(nonzero))
        if _sparse_wins(array, nnz, coo_ratio):
            indices = np.flatnonzero(nonzero).astype(np.uint32)
            values = np.ascontiguousarray(flat[indices])
            descriptor["enc"] = "coo"
            descriptor["count"] = int(indices.size)
            (descriptor["index_offset"],
             descriptor["index_nbytes"]) = _append(indices)
            descriptor["offset"], descriptor["nbytes"] = _append(values)
        else:
            descriptor["enc"] = "raw"
            descriptor["offset"], descriptor["nbytes"] = _append(array)
        descriptors[name] = descriptor

    header = json.dumps({"payload": payload,
                         "arrays": descriptors}).encode()
    if len(header) > MAX_HEADER_BYTES:
        raise CodecError(f"frame header is {len(header)} bytes "
                         f"(cap {MAX_HEADER_BYTES})")
    if offset > MAX_BODY_BYTES:
        raise CodecError(f"frame body is {offset} bytes "
                         f"(cap {MAX_BODY_BYTES})")
    prefix = _PREFIX_STRUCT.pack(FRAME_MAGIC, len(header), offset)
    _count_bytes("sent", FRAME_PREFIX_LEN + len(header) + offset)
    return b"".join([prefix, header, *buffers])


def _checked_magic(magic: bytes) -> bytes:
    """Refuse a foreign protocol from its first four bytes.

    Readers check the magic before waiting for the rest of the prefix,
    so a peer speaking something else (a JSON line shorter than a
    prefix) is answered at once instead of blocking on bytes it will
    never send.
    """
    if magic != FRAME_MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    return magic


def parse_frame_prefix(prefix: bytes) -> tuple[int, int]:
    """Validate a 16-byte frame prefix; returns ``(hlen, blen)``.

    This is the pre-allocation gate: callers check the declared lengths
    against the caps *before* reading (or even reserving) the rest of
    the frame, so a hostile length prefix is rejected typed without a
    single oversized allocation.
    """
    if len(prefix) != FRAME_PREFIX_LEN:
        raise CodecError(
            f"truncated frame prefix ({len(prefix)}/{FRAME_PREFIX_LEN} "
            "bytes)")
    magic, header_len, body_len = _PREFIX_STRUCT.unpack(prefix)
    if magic != FRAME_MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise CodecError(f"frame header length {header_len} outside "
                         f"(0, {MAX_HEADER_BYTES}]")
    if body_len > MAX_BODY_BYTES:
        raise CodecError(f"frame body length {body_len} exceeds cap "
                         f"{MAX_BODY_BYTES}")
    return header_len, body_len


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CodecError(message)


def _decode_descriptor(name: str, descriptor, body: memoryview
                       ) -> np.ndarray:
    """One validated array from its descriptor + the body buffer."""
    _require(isinstance(descriptor, dict),
             f"array descriptor {name!r} must be an object")
    dtype_name = descriptor.get("dtype")
    _require(isinstance(dtype_name, str) and dtype_name in _WIRE_DTYPES,
             f"array {name!r} smuggles dtype {dtype_name!r}")
    dtype = np.dtype(dtype_name)
    shape = descriptor.get("shape")
    _require(isinstance(shape, list) and len(shape) <= _MAX_NDIM
             and all(isinstance(s, int) and s >= 0 for s in shape),
             f"array {name!r} has a malformed shape")
    # ``span`` ignores zero extents, so a shape like [0, 2**62] cannot
    # slip past the cap and then fail inside numpy's reshape.
    size = span = 1
    for extent in shape:
        size *= extent
        span *= max(extent, 1)
    _require(span * dtype.itemsize <= MAX_BODY_BYTES,
             f"array {name!r} declares {span} elements (over cap)")

    def _slice(offset, nbytes) -> memoryview:
        _require(isinstance(offset, int) and isinstance(nbytes, int)
                 and offset >= 0 and nbytes >= 0
                 and offset + nbytes <= body.nbytes,
                 f"array {name!r} buffer [{offset}, +{nbytes}] falls "
                 f"outside the {body.nbytes}-byte body")
        return body[offset:offset + nbytes]

    encoding = descriptor.get("enc")
    if encoding == "raw":
        raw = _slice(descriptor.get("offset"), descriptor.get("nbytes"))
        _require(raw.nbytes == size * dtype.itemsize,
                 f"array {name!r} buffer holds {raw.nbytes} bytes but "
                 f"shape {shape} needs {size * dtype.itemsize}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    if encoding == "coo":
        count = descriptor.get("count")
        _require(isinstance(count, int) and 0 <= count <= size,
                 f"array {name!r} declares {count!r} sparse entries "
                 f"for {size} elements")
        raw_idx = _slice(descriptor.get("index_offset"),
                         descriptor.get("index_nbytes"))
        raw_val = _slice(descriptor.get("offset"),
                         descriptor.get("nbytes"))
        _require(raw_idx.nbytes == count * 4
                 and raw_val.nbytes == count * dtype.itemsize,
                 f"array {name!r} sparse buffers disagree with its "
                 f"entry count {count}")
        indices = np.frombuffer(raw_idx, dtype=np.uint32)
        _require(count == 0 or int(indices.max()) < size,
                 f"array {name!r} sparse index out of range")
        flat = np.zeros(size, dtype=dtype)
        flat[indices] = np.frombuffer(raw_val, dtype=dtype)
        return flat.reshape(shape)
    raise CodecError(f"array {name!r} uses unknown encoding "
                     f"{encoding!r}")


def decode_frame(header: bytes | memoryview,
                 body: bytes | memoryview
                 ) -> tuple[dict, dict[str, np.ndarray]]:
    """Rebuild ``(payload, arrays)`` from a frame's header + body.

    Raw-encoded arrays are **read-only zero-copy views** into ``body``;
    COO arrays are scattered into fresh buffers.  Both are bit-identical
    to what :func:`encode_frame` was given.
    """
    try:
        parsed = json.loads(bytes(header))
    except (ValueError, RecursionError) as error:
        raise CodecError(f"frame header is not valid JSON: {error}") \
            from error
    _require(isinstance(parsed, dict)
             and isinstance(parsed.get("payload"), dict)
             and isinstance(parsed.get("arrays"), dict),
             "frame header must carry 'payload' and 'arrays' objects")
    body_view = memoryview(body).cast("B")
    arrays = {str(name): _decode_descriptor(str(name), descriptor,
                                            body_view)
              for name, descriptor in parsed["arrays"].items()}
    _count_bytes("received",
                 FRAME_PREFIX_LEN + len(header) + body_view.nbytes)
    return parsed["payload"], arrays


def read_frame(reader) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Read one frame from a blocking binary file object.

    Returns ``None`` on clean EOF (peer hung up between frames); raises
    :class:`~repro.errors.CodecError` on a truncated or hostile frame.
    The declared lengths are validated against the caps *before* the
    header/body reads, so no oversized buffer is ever allocated.
    """
    magic = reader.read(len(FRAME_MAGIC))
    if not magic:
        return None
    header_len, body_len = parse_frame_prefix(
        _checked_magic(magic)
        + reader.read(FRAME_PREFIX_LEN - len(FRAME_MAGIC)))
    header = reader.read(header_len)
    _require(len(header) == header_len,
             f"frame truncated in header ({len(header)}/{header_len} "
             "bytes)")
    body = reader.read(body_len)
    _require(len(body) == body_len,
             f"frame truncated in body ({len(body)}/{body_len} bytes)")
    return decode_frame(header, body)


# ----------------------------------------------------------------------
# Structured errors (the ``error`` field of a failed reply)
# ----------------------------------------------------------------------
def error_payload(error: Exception) -> dict:
    """An exception as a reply's structured ``error`` field."""
    return {"type": type(error).__name__, "message": str(error)}


def error_from_payload(error, types: dict[str, type],
                       fallback: type[Exception]) -> Exception:
    """The typed exception a structured ``error`` field carries.

    ``types`` maps the sender's class names to the classes this side
    raises; any other name (or a missing field) becomes ``fallback``
    with the sender's class name kept in the message.  A bare string,
    an older peer's unstructured error, becomes ``fallback`` as is.
    """
    if isinstance(error, str):
        return fallback(error)
    error = error if isinstance(error, dict) else {}
    name = error.get("type", "Error")
    message = error.get("message", "remote failure")
    cls = types.get(name)
    return fallback(f"{name}: {message}") if cls is None else cls(message)


# ----------------------------------------------------------------------
# Shared-secret handshake (optional fabric authentication)
# ----------------------------------------------------------------------
_AUTH_CONTEXT = b"repro-fabric-v1"


def fabric_auth(token: str) -> str:
    """The ``auth`` proof a payload must carry for a given token."""
    return hmac.new(token.encode(), _AUTH_CONTEXT,
                    hashlib.sha256).hexdigest()


def attach_token(payload: dict, token: str | None) -> dict:
    """Return ``payload`` carrying the auth proof (no-op without token)."""
    if token is None:
        return payload
    return dict(payload, auth=fabric_auth(token))


def check_token(payload: dict, token: str | None) -> bool:
    """Whether a payload satisfies the configured token (constant-time).

    With no token configured every payload passes; with one, the payload
    must carry a matching ``auth`` field.  Callers reject failing
    payloads with :class:`~repro.errors.FabricAuthError` *before*
    touching any pickle they carry.
    """
    if token is None:
        return True
    auth = payload.get("auth")
    if not isinstance(auth, str):
        return False
    return hmac.compare_digest(auth, fabric_auth(token))
