"""Remote engine workers: the fabric over RBF1-framed TCP.

A host joins the fabric two ways:

* **Listen** — run ``repro worker --listen host:port``
  (:class:`WorkerServer`); a driver attaches a :class:`RemoteWorker`
  lane to it.
* **Join** — run ``repro worker --join host:port`` (:func:`join_fabric`)
  against a driver whose :class:`~repro.runtime.WorkerGroup` opened a
  :class:`GroupListener`: the connection is initiated *by the worker*,
  which then serves the same protocol over it.  This is how a lane
  enters a sweep or a serving pool **mid-run** — the listener admits the
  socket as a new lane via ``WorkerGroup.add_lane``.

Every message, from a connection's first byte, is one RBF1 frame of
:mod:`repro.runtime.codec`: a JSON header plus raw ndarray buffers
(written ``+ arrays`` below).  Requests are answered in order::

    {"op": "ping"}                         -> {"ok": true, "pid": ...}
    {"op": "deploy"} + blob (uint8 pickle) -> {"ok": true, "deployments": N}
    {"op": "execute_many",
     "items": [{"item_id", "deployment"},
               ...]} + images:0, ...       -> {"ok": true, "results": [...]}
                                              + logits:0, charges:0,
                                                adder_ops:0, ...

A connection's first request is ``deploy``; there is no negotiation
round trip.  How many chunks a driver keeps on the wire toward a host is
the driver's own dispatch credit, capped at
:attr:`RemoteWorker.pipeline_depth`.  ``execute_many`` is the one
execute op: it ships one whole dispatch chunk per frame (a single item
is a chunk of one) to amortize framing and round-trips.  Each
``results`` entry is ``{"ok": true, "item_id", "layers", "input_cycles",
"elapsed_s", "pid", "spans"}`` or a per-item error payload.  Entry
``i``'s batch trace rides the body as int64 arrays: ``charges:i`` (one
row of data-independent charges per layer) and ``adder_ops:i`` (one row
per image, one column per layer).

Task-level failures answer ``{"ok": false, "error": {"type", "message"}}``
and keep the connection; a known type (``DeploymentError``,
``FabricAuthError``) is resurrected client-side as the same typed
exception.  A frame that fails validation — including anything that is
not RBF1 at all, such as a JSON line — answers one ``CodecError`` frame
and hangs up: a length-prefixed stream has no point to resynchronize
on.  Transport-level failures (closed socket, blown timeout) surface as
:class:`~repro.errors.WorkerCrashError` so the group evicts the lane and
requeues its work.

Every fabric socket, on the dialing and the accepting side, turns
Nagle's algorithm off (NODELAY) and keepalive on
(:func:`_configure_socket`), so each frame leaves the moment it is
written.

Results are bit-identical to a local run: images and logits cross the
wire as raw buffers, traces as integer arrays.  The ``deploy`` blob
is pickled — **only attach workers you trust, over networks you
trust**; this is a lab/cluster fabric, not a public API.  An optional
shared secret softens the caveat: a server started with a ``token``
rejects every payload that does not carry the matching auth proof
(:func:`~repro.runtime.codec.attach_token`) *before* unpickling
anything, and the join handshake is verified in both directions.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine.trace import CHARGE_COLUMNS, BatchTrace
from repro.errors import (
    CodecError,
    DeploymentError,
    FabricAuthError,
    RemoteExecutionError,
    WorkerCrashError,
)
from repro.runtime.codec import (
    attach_token,
    check_token,
    encode_frame,
    error_from_payload,
    error_payload,
    read_frame,
)
from repro.runtime.work import (Deployment, WorkItem, WorkResult,
                                chunk_timeout_s, execute_item)
from repro.runtime.workers import Worker

__all__ = ["GroupListener", "JoinStats", "RemoteWorker", "WorkerServer",
           "join_fabric"]

#: Error types a structured worker reply resurrects client-side;
#: anything else degrades to :class:`RemoteExecutionError`.
_REMOTE_ERROR_TYPES = {
    "DeploymentError": DeploymentError,
    "FabricAuthError": FabricAuthError,
}


def _configure_socket(sock: socket.socket) -> None:
    """Options every fabric connection carries, on both of its ends.

    NODELAY, because each frame is one ``sendall`` and Nagle has nothing
    to coalesce: under Nagle, a pipelined reply written while the
    previous one is still unacknowledged waits for the peer's delayed
    ACK (about 40 ms on Linux) before it leaves.  Keepalive, so a host
    that vanished without a FIN/RST (power loss, partition) surfaces as
    an OSError in about a minute instead of blocking an untimed frame
    read forever."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", 30),
                          ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):
            sock.setsockopt(socket.IPPROTO_TCP,
                            getattr(socket, option), value)


# ----------------------------------------------------------------------
# Worker-side protocol core — shared by --listen and --join
# ----------------------------------------------------------------------
def _handle_request(deployments: list[Deployment], message: dict,
                    arrays: dict[str, np.ndarray],
                    token: str | None = None) -> tuple[dict, dict]:
    """One decoded request frame -> ``(reply payload, reply arrays)``."""
    if not check_token(message, token):
        # Reject *before* touching the pickle a deploy carries.
        raise FabricAuthError(
            "payload rejected: missing or invalid fabric token")
    op = message.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid(),
                "deployments": len(deployments)}, {}
    if op == "deploy":
        blob = arrays.get("blob")
        if blob is None or blob.dtype != np.uint8 or blob.ndim != 1:
            raise ValueError("deploy needs a 1-D uint8 'blob' array")
        deployments[:] = list(pickle.loads(blob))
        return {"ok": True, "deployments": len(deployments)}, {}
    if op == "execute_many":
        specs = message.get("items")
        if not isinstance(specs, list):
            raise ValueError("execute_many needs an 'items' list")
        results: list[dict] = []
        out_arrays: dict[str, np.ndarray] = {}
        for position, spec in enumerate(specs):
            try:
                item = WorkItem(item_id=int(spec["item_id"]),
                                deployment=int(spec["deployment"]),
                                images=arrays[f"images:{position}"],
                                trace=spec.get("trace"))
                result = execute_item(deployments, item)
            except Exception as error:  # noqa: BLE001 — per-item
                # failure inside a healthy chunk: the sibling items'
                # results must still come back.
                results.append({"ok": False,
                                "error": error_payload(error)})
                continue
            results.append({
                "ok": True,
                "item_id": result.item_id,
                "layers": result.trace.layers,
                "input_cycles": result.trace.input_cycles,
                "elapsed_s": result.elapsed_s,
                "pid": result.pid,
                "spans": result.spans,
            })
            out_arrays[f"logits:{position}"] = result.logits
            out_arrays[f"charges:{position}"] = result.trace.charges
            out_arrays[f"adder_ops:{position}"] = result.trace.adder_ops
        return {"ok": True, "results": results}, out_arrays
    raise ValueError(f"unknown op {op!r}")


def _serve_requests(conn: socket.socket, reader,
                    token: str | None = None,
                    chaos=None, lane: str = "conn") -> None:
    """Answer request frames on one connection until the peer goes away.

    Every well-framed request must answer: an unpicklable blob, a
    version-skewed or unknown op, or a bad token is a *task* failure on
    a healthy host — killing the connection would make the driver
    misread it as a lane crash and requeue the item elsewhere.  The one
    exception is a frame that fails validation (or is not RBF1 at all):
    a length-prefixed stream has no point to resynchronize on, so the
    server answers one ``CodecError`` frame and hangs up.  ``chaos`` is
    an optional :class:`~repro.runtime.chaos.ChaosPolicy` consulted
    after each answered request — a ``server_conn`` hangup fault closes
    the connection so the driver sees a vanished host.
    """
    deployments: list[Deployment] = []
    while True:
        try:
            decoded = read_frame(reader)
        except CodecError as error:
            try:
                conn.sendall(encode_frame(
                    {"ok": False, "error": error_payload(error)}))
            except OSError:
                pass
            return
        if decoded is None:
            return
        message, arrays = decoded
        try:
            reply, out_arrays = _handle_request(
                deployments, message, arrays, token)
        except Exception as error:  # noqa: BLE001 — see docstring
            reply = {"ok": False, "error": error_payload(error)}
            out_arrays = {}
        conn.sendall(encode_frame(reply, out_arrays))
        if chaos is not None and chaos.server_hangup(lane):
            return  # injected hangup: the reply landed, then we vanish


# ----------------------------------------------------------------------
# Server side — what `repro worker --listen` runs
# ----------------------------------------------------------------------
class WorkerServer:
    """A TCP engine worker: accepts connections, executes work items.

    Engines are built lazily per deployment through the process-wide
    warm cache, so repeated sweeps against the same worker recompile
    nothing.  Each connection carries its own deployment table (drivers
    deploy right after connecting); one handler thread per connection
    keeps the protocol strictly request/response ordered.  With a
    ``token``, payloads without the matching auth proof are rejected
    before any blob is unpickled.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None,
                 chaos=None) -> None:
        self.host = host
        self.port = port
        self.token = token
        #: Optional ChaosPolicy: injected server_conn hangups per reply.
        self.chaos = chaos
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        # Live handler threads and their sockets, pruned as connections
        # close — the worker is a long-lived daemon, so per-connection
        # state must not accumulate.  Guarded by _conn_lock (accept
        # thread adds, handlers remove, close() snapshots).
        self._handlers: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        self._accepted = itertools.count()

    @property
    def running(self) -> bool:
        return self._sock is not None

    def start(self) -> "WorkerServer":
        """Bind and begin accepting; ``port=0`` picks an ephemeral port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen()
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed by close()
            _configure_socket(conn)
            # Each connection draws chaos as its own lane, named by
            # accept order, so a seed replays whatever port was bound.
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, f"conn-{next(self._accepted)}"),
                name="repro-worker-conn", daemon=True)
            with self._conn_lock:
                self._connections.add(conn)
                self._handlers.add(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket, lane: str) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                _serve_requests(conn, reader, token=self.token,
                                chaos=self.chaos, lane=lane)
        except (ConnectionError, OSError):
            pass  # peer vanished; nothing to answer
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
                self._handlers.discard(threading.current_thread())

    def close(self) -> None:
        self._closing.set()
        if self._sock is not None:
            # shutdown() before close(): closing an fd does NOT wake a
            # thread blocked in accept() on it (the kernel socket stays
            # in LISTEN and keeps taking connections); shutdown does.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        # Drop live connections too, so attached lanes observe the death
        # promptly (heartbeat probes must fail, not hang).
        with self._conn_lock:
            connections = list(self._connections)
            handlers = list(self._handlers)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        for handler in handlers:
            handler.join(timeout=1.0)


# ----------------------------------------------------------------------
# Joining side — what `repro worker --join` runs
# ----------------------------------------------------------------------
@dataclass
class JoinStats:
    """What a :func:`join_fabric` daemon did, surfaced to the caller."""

    attempts: int = 0        # dial attempts (successful or not)
    connects: int = 0        # handshakes that became serve sessions
    disconnects: int = 0     # sessions ended by the group going away

    def to_dict(self) -> dict:
        return {"attempts": self.attempts, "connects": self.connects,
                "disconnects": self.disconnects}


def _backoff_delay(base: float, streak: int, cap: float) -> float:
    """Jittered exponential backoff: ``base * 2^(streak-1)`` capped at
    ``cap``, scaled by a uniform jitter in [0.5, 1.0) so a fleet of
    daemons losing one driver does not re-dial in lockstep."""
    delay = min(cap, base * (2 ** min(max(streak - 1, 0), 16)))
    return delay * (0.5 + random.random() * 0.5)


def join_fabric(
    host: str,
    port: int,
    token: str | None = None,
    name: str | None = None,
    retry_s: float | None = None,
    stop_event: threading.Event | None = None,
    connect_timeout_s: float = 5.0,
    max_retry_s: float = 30.0,
) -> JoinStats:
    """Connect out to a live group's :class:`GroupListener` and serve.

    The reverse of ``--listen``: the *worker* dials the driver, proves
    the shared ``token`` in a ``join`` handshake (and verifies the group's
    counter-proof), and then answers deploy/execute requests over the
    same socket until the group goes away.  With ``retry_s`` the worker
    keeps re-dialing — before the listener exists and again after the
    group stops — so a fleet of ``repro worker --join`` daemons finds
    every run that opens a listener.  Consecutive failed dials back off
    exponentially from ``retry_s`` up to ``max_retry_s`` with jitter
    (see :func:`_backoff_delay`); a session that actually served resets
    the backoff, so a briefly-restarting driver is re-joined at the base
    delay while a gone-for-good one is probed ever more lazily.  A
    failed handshake raises :class:`~repro.errors.FabricAuthError`
    immediately (a wrong token never heals by retrying).  Returns a
    :class:`JoinStats` with dial/serve/disconnect counts once the loop
    exits.
    """
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    stats = JoinStats()
    streak = 0               # consecutive failures since the last serve
    while True:
        if stop_event is not None and stop_event.is_set():
            return stats
        stats.attempts += 1
        try:
            sock = socket.create_connection((host, port),
                                            timeout=connect_timeout_s)
        except OSError:
            if retry_s is None:
                raise WorkerCrashError(
                    f"cannot reach group listener {host}:{port} "
                    f"(attempt {stats.attempts})") from None
            streak += 1
            delay = _backoff_delay(retry_s, streak, max_retry_s)
            if stop_event is not None:
                if stop_event.wait(delay):
                    return stats
            else:
                time.sleep(delay)
            continue
        try:
            _configure_socket(sock)
            sock.settimeout(connect_timeout_s)
            sock.sendall(encode_frame(attach_token(
                {"op": "join", "name": worker_name}, token)))
            reader = sock.makefile("rb")
            reply = (read_frame(reader) or ({}, {}))[0]
            if not reply.get("ok") or not check_token(reply, token):
                error = (reply.get("error") or {}).get(
                    "message", "group refused the join handshake")
                raise FabricAuthError(error)
            sock.settimeout(None)
            stats.connects += 1
            streak = 0       # a real session: back to the base delay
            _serve_requests(sock, reader)
            # Clean EOF: the group hung up (run finished or driver
            # stopped) — counted the same as a mid-serve drop.
            stats.disconnects += 1
        except (ConnectionError, OSError):
            # The group went away MID-serve (reset, partition, driver
            # killed): record the disconnect and let the retry loop
            # decide — the explicit path the old silent fall-through
            # used to hide.
            stats.disconnects += 1
            streak += 1
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if retry_s is None:
            return stats
        delay = _backoff_delay(retry_s, streak, max_retry_s)
        if stop_event is not None:
            if stop_event.wait(delay):
                return stats
        else:
            time.sleep(delay)


class GroupListener:
    """Admits ``repro worker --join`` hosts into a live :class:`WorkerGroup`.

    Owned by whoever owns the group (the sweep driver's ``accept=``
    knob, or any caller): each accepted connection performs the join
    handshake (token checked both ways) and, on success, becomes a
    :class:`RemoteWorker` lane via ``group.add_lane`` — from that moment
    it is a full fabric citizen: it steals work, answers heartbeats, and
    its eviction requeues exactly like any other lane.
    """

    def __init__(self, group, host: str = "127.0.0.1", port: int = 0,
                 token: str | None = None,
                 handshake_timeout_s: float = 5.0) -> None:
        self.group = group
        self.host = host
        self.port = port
        self.token = token
        self.handshake_timeout_s = handshake_timeout_s
        self.joined: list[str] = []          # lane names, admission order
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._closing = threading.Event()

    @property
    def running(self) -> bool:
        return self._sock is not None

    def start(self) -> "GroupListener":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen()
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-group-listener",
            daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self) -> "GroupListener":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # socket closed by close()
            try:
                self._admit(conn, peer)
            except Exception:  # noqa: BLE001 — a bad joiner must not
                # kill the accept loop; the group keeps running on its
                # existing lanes.
                try:
                    conn.close()
                except OSError:
                    pass

    def _admit(self, conn: socket.socket, peer) -> None:
        """Handshake one joiner and hand its socket to the group."""
        conn.settimeout(self.handshake_timeout_s)
        reader = conn.makefile("rb")
        try:
            request = (read_frame(reader) or ({}, {}))[0]
            refusal = (None if request.get("op") == "join"
                       and check_token(request, self.token)
                       else FabricAuthError(
                           "join rejected: missing or invalid fabric "
                           "token"))
        except CodecError as error:
            refusal = error   # not RBF1 (or a hostile frame)
        if refusal is not None:
            try:
                conn.sendall(encode_frame(
                    {"ok": False, "error": error_payload(refusal)}))
            finally:
                reader.close()
                conn.close()
            return
        name = str(request.get("name") or f"joined@{peer[0]}:{peer[1]}")
        conn.sendall(encode_frame(attach_token(
            {"ok": True, "name": name}, self.token)))
        conn.settimeout(None)
        _configure_socket(conn)
        worker = RemoteWorker.from_socket(conn, reader, name=name)
        try:
            lane_name = self.group.add_lane(worker)
        except Exception:
            worker.close()
            raise
        self.joined.append(lane_name)

    def close(self) -> None:
        self._closing.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None


# ----------------------------------------------------------------------
# Client side — the lane a WorkerGroup schedules onto
# ----------------------------------------------------------------------
@dataclass
class _RemoteFlight:
    """One chunk on the wire awaiting its (in-order) reply."""

    items: list
    spans: dict = field(default_factory=dict)
    deadline: float | None = None


class RemoteWorker(Worker):
    """One fabric lane backed by a :class:`WorkerServer` connection.

    The protocol answers requests strictly in send order on a
    connection, so the lane pipelines: :meth:`send_chunk` puts a chunk
    on the wire without waiting and :meth:`collect_chunk` reads the
    oldest outstanding reply — chunk N+1 is encoded and in flight while
    the server computes chunk N.  The server answers strictly in order
    per connection, so :attr:`pipeline_depth` is purely a client-side
    cap on the group's dispatch credit; a connect makes no round trip
    before ``deploy``.
    """

    kind = "remote"
    pipeline_depth = 8

    def __init__(self, host: str, port: int, name: str | None = None,
                 connect_timeout_s: float = 5.0,
                 token: str | None = None) -> None:
        super().__init__(name or f"remote@{host}:{port}")
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.token = token
        self._sock: socket.socket | None = None
        self._reader = None
        # Serializes the request/response exchange: the group's monitor
        # may ping while the dispatcher thread owns the socket.  The
        # condition lets a whole-exchange request (deploy, ping) wait
        # for the in-flight window to drain — injecting one between a
        # pipelined send and its collect would desequence the
        # strictly-ordered replies.
        self._io_lock = threading.Lock()
        self._io_cond = threading.Condition(self._io_lock)

    @classmethod
    def from_socket(cls, sock: socket.socket, reader,
                    name: str) -> "RemoteWorker":
        """Wrap an already-connected socket (a joined host) as a lane.

        The peer initiated this connection, so the lane cannot re-dial
        it after a drop — ``restartable`` is False and probation is
        skipped; a recovered host simply joins again.
        """
        try:
            host, port = sock.getpeername()[:2]
        except OSError:
            host, port = "joined", 0
        worker = cls(host, int(port), name=name)
        worker._sock = sock
        worker._reader = reader
        worker.restartable = False
        return worker

    def start(self) -> None:
        if self._sock is not None:
            return  # pre-connected (joined) lane
        if not self.restartable:
            raise WorkerCrashError(
                f"worker {self.name!r} joined over its own connection "
                "and cannot be re-dialed")
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s)
            # An execute without a per-item timeout blocks in its frame
            # read; keepalive bounds how long a silently vanished host
            # can stall it (see _configure_socket).
            _configure_socket(self._sock)
            self._reader = self._sock.makefile("rb")
        except OSError as error:
            raise WorkerCrashError(
                f"cannot reach worker {self.host}:{self.port}: "
                f"{error}") from error

    def _request(self, payload: dict,
                 timeout_s: float | None = None,
                 arrays: dict | None = None) -> tuple[dict, dict]:
        with self._io_cond:
            # Replies are strictly ordered per connection: a full
            # exchange must wait until every pipelined chunk has been
            # collected, else its read would consume a chunk reply.
            # The timed wait doubles as a poll for close() clearing the
            # window without holding the lock.
            while self._outstanding:
                self._io_cond.wait(timeout=0.1)
            return self._request_locked(payload, timeout_s, arrays)

    def _fail(self, error: Exception) -> WorkerCrashError:
        """Close the lane; the crash error the caller raises."""
        self.close()
        return WorkerCrashError(
            f"worker {self.name!r} connection failed: {error}")

    def _send_locked(self, payload: dict, arrays: dict | None,
                     timeout_s: float | None) -> None:
        """Put one request frame on the wire; caller holds ``_io_lock``."""
        if (self.chaos is not None
                and self.chaos.exchange_fate(self.name) == "sever"):
            # Injected partition: drop the socket mid-protocol so the
            # group sees the real dead-lane signature and evicts us —
            # with a window open, every outstanding chunk dies with it.
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} connection severed (chaos)")
        try:
            self._sock.settimeout(timeout_s)
            self._sock.sendall(encode_frame(
                attach_token(payload, self.token), arrays or {}))
        except (OSError, ValueError, CodecError) as error:
            raise self._fail(error) from error

    def _read_reply_locked(self, timeout_s: float | None
                           ) -> tuple[dict, dict]:
        """The next reply frame; caller holds ``_io_lock``."""
        try:
            self._sock.settimeout(timeout_s)
            decoded = read_frame(self._reader)
        except (OSError, ValueError, CodecError) as error:
            raise self._fail(error) from error
        if decoded is None:
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} closed the connection")
        return decoded

    def _request_locked(self, payload: dict,
                        timeout_s: float | None = None,
                        arrays: dict | None = None) -> tuple[dict, dict]:
        """One exchange -> ``(reply payload, reply arrays)``; caller must
        hold ``_io_lock``.  An ``{"ok": false}`` reply raises its typed
        error."""
        if self._sock is None:
            raise WorkerCrashError(
                f"worker {self.name!r} is not connected")
        self._send_locked(payload, arrays, timeout_s)
        reply, reply_arrays = self._read_reply_locked(timeout_s)
        if not reply.get("ok"):
            raise error_from_payload(reply.get("error"),
                                     _REMOTE_ERROR_TYPES,
                                     RemoteExecutionError)
        return reply, reply_arrays

    def deploy(self, deployments: list[Deployment]) -> None:
        # The pickle rides the frame body as raw bytes, so a deployment
        # table of any size (VGG-11's weights) stays under the header
        # cap.
        blob = np.frombuffer(pickle.dumps(
            list(deployments), protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8)
        try:
            self._request({"op": "deploy"},
                          timeout_s=self.connect_timeout_s * 4,
                          arrays={"blob": blob})
        except FabricAuthError as error:
            # An unauthenticated lane can never execute anything: treat
            # the handshake failure as lane-level so the group degrades
            # (dead lane, tolerated) instead of aborting the whole run.
            self.close()
            raise WorkerCrashError(
                f"worker {self.name!r} rejected the fabric token: "
                f"{error}") from error

    def _result_from(self, reply: dict, arrays: dict,
                     position: int) -> WorkResult:
        spans = list(reply.get("spans") or [])
        # The server side executes with no knowledge of what this group
        # calls its lane, so its lane_execute spans come back with an
        # empty worker attribute.  Stamp the client-edge lane identity
        # here — the one place that knows both the spans and the name —
        # so traces attribute remote execution to ``remote@host:port``.
        for span in spans:
            attrs = span.get("attrs")
            if isinstance(attrs, dict) and not attrs.get("worker"):
                attrs["worker"] = self.name
        logits, trace = self._batch_from(reply, arrays, position)
        return WorkResult(
            item_id=int(reply["item_id"]),
            logits=logits,
            trace=trace,
            elapsed_s=float(reply["elapsed_s"]),
            worker=self.name,
            pid=int(reply.get("pid", 0)),
            spans=spans,
        )

    def _batch_from(self, reply: dict, arrays: dict,
                    position: int) -> tuple[np.ndarray, BatchTrace]:
        """Result ``position``'s logits and batch trace, checked for
        shape: a reply that does not line up is a broken lane
        (:class:`WorkerCrashError`), never a silently wrong trace."""
        def broken(why: str) -> WorkerCrashError:
            return WorkerCrashError(
                f"worker {self.name!r} sent a malformed result "
                f"{position}: {why}")

        layers = reply.get("layers")
        if not isinstance(layers, list) or not all(
                isinstance(layer, list) and len(layer) == 2
                and all(isinstance(part, str) for part in layer)
                for layer in layers):
            raise broken("'layers' is not a list of [name, kind] pairs")
        input_cycles = reply.get("input_cycles")
        if type(input_cycles) is not int:
            raise broken("'input_cycles' is not an integer")
        logits, charges, adder_ops = (
            arrays.get(f"{name}:{position}")
            for name in ("logits", "charges", "adder_ops"))
        for name, array in (("logits", logits), ("charges", charges),
                            ("adder_ops", adder_ops)):
            if array is None:
                raise broken(f"no '{name}:{position}' array")
            if name != "logits" and array.dtype != np.int64:
                raise broken(f"'{name}' is {array.dtype}, not int64")
        if logits.ndim != 2:
            raise broken(f"logits shaped {logits.shape}")
        if charges.shape != (len(layers), len(CHARGE_COLUMNS)):
            raise broken(f"charges shaped {charges.shape} for "
                         f"{len(layers)} layers")
        if adder_ops.shape != (logits.shape[0], len(layers)):
            raise broken(f"adder_ops shaped {adder_ops.shape} for "
                         f"{logits.shape[0]} images x {len(layers)} "
                         "layers")
        return logits, BatchTrace(
            layers=tuple((name, kind) for name, kind in layers),
            charges=charges, input_cycles=input_cycles,
            adder_ops=adder_ops)

    def execute(self, item: WorkItem) -> WorkResult:
        outcome = self.execute_many([item])[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def execute_many(self, items: list[WorkItem]) -> list:
        """One framed round-trip for a whole dispatch chunk.

        Returns one :class:`WorkResult` or :class:`Exception` per item
        (aligned); the chunk shares a single wire exchange, so framing
        overhead is paid once.  The exchange deadline
        is the chunk's tightest surviving item budget
        (:func:`~repro.runtime.work.chunk_timeout_s`).
        """
        self.send_chunk(items)
        return self.collect_chunk()

    def _chunk_payload(self, items: list[WorkItem]):
        """Build an ``execute_many`` payload: wire entries, array map
        and one exchange span per traced item.

        One wire round-trip serves the whole chunk, but each traced
        item still gets its own exchange span (all covering the same
        shared window, like the serve layer's shared execute spans) so
        every request's tree keeps the request -> ... -> exchange ->
        lane_execute shape regardless of how dispatch chunked it.
        """
        exchange_spans: dict = {}
        wire_items = []
        for item in items:
            entry = {"item_id": item.item_id,
                     "deployment": item.deployment}
            if item.trace:
                from repro.telemetry import Span
                span = Span.child_of(item.trace, "exchange")
                exchange_spans[item.item_id] = span
                entry["trace"] = span.context()
            wire_items.append(entry)
        payload = {"op": "execute_many", "items": wire_items}
        arrays = {f"images:{position}": item.images
                  for position, item in enumerate(items)}
        return payload, arrays, exchange_spans

    def send_chunk(self, items: list[WorkItem]) -> None:
        """Encode a chunk and put it on the wire without waiting.

        The server answers strictly in order, so replies collect FIFO;
        the caller keeps at most :attr:`pipeline_depth` chunks
        outstanding.  The chunk's deadline starts *now* — queue wait
        behind earlier windowed chunks counts against it.
        """
        payload, arrays, spans = self._chunk_payload(items)
        timeout_s = chunk_timeout_s(items)
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        with self._io_lock:
            if self._sock is None:
                raise WorkerCrashError(
                    f"worker {self.name!r} is not connected")
            if len(self._outstanding) >= self.pipeline_depth:
                raise ValueError(
                    f"worker {self.name!r} already has "
                    f"{len(self._outstanding)} chunk(s) in flight "
                    f"(pipeline_depth={self.pipeline_depth})")
            self._send_locked(payload, arrays, timeout_s)
            self._outstanding.append(_RemoteFlight(
                list(items), spans, deadline))

    def collect_chunk(self) -> list:
        """Read the oldest outstanding chunk's reply and decode it."""
        with self._io_cond:
            if not self._outstanding:
                # The group believes a chunk is in flight; an empty
                # window here means close() tore the connection down
                # underneath it (monitor-driven eviction) — crash
                # semantics, so the caller requeues instead of failing.
                raise WorkerCrashError(
                    f"worker {self.name!r} has no chunk in flight "
                    "(connection was closed)")
            flight = self._outstanding[0]
            if self._sock is None:
                raise WorkerCrashError(
                    f"worker {self.name!r} is not connected")
            timeout_s = None
            if flight.deadline is not None:
                timeout_s = flight.deadline - time.monotonic()
                if timeout_s <= 0:
                    self.close()
                    raise WorkerCrashError(
                        f"worker {self.name!r} exceeded its chunk "
                        "deadline before replying")
            reply, arrays = self._read_reply_locked(timeout_s)
            self._outstanding.popleft()
            self._io_cond.notify_all()
        if not reply.get("ok"):
            # A whole-chunk refusal (auth, malformed frame) on a live
            # connection: a task-level failure — the reply was consumed
            # in order, the lane stays healthy.
            raise error_from_payload(reply.get("error"),
                                     _REMOTE_ERROR_TYPES,
                                     RemoteExecutionError)
        return self._decode_chunk(reply, arrays, flight)

    def _decode_chunk(self, reply: dict, arrays: dict,
                      flight: _RemoteFlight) -> list:
        """An ``execute_many`` reply -> aligned outcomes for a flight."""
        items = flight.items
        entries = reply.get("results")
        if not isinstance(entries, list) or len(entries) != len(items):
            raise WorkerCrashError(
                f"worker {self.name!r} answered "
                f"{len(entries) if isinstance(entries, list) else 0} "
                f"results for a {len(items)}-item chunk")
        outcomes: list = []
        for position, entry in enumerate(entries):
            outcomes.append(
                self._result_from(entry, arrays, position)
                if entry.get("ok") else error_from_payload(
                    entry.get("error"), _REMOTE_ERROR_TYPES,
                    RemoteExecutionError))
        if flight.spans:
            shared = len(items) > 1
            for position, item in enumerate(items):
                span = flight.spans.get(item.item_id)
                if span is None:
                    continue
                outcome = outcomes[position]
                span.set(worker=self.name, num_images=item.num_images, shared=shared)
                finished = span.finish(
                    ok=isinstance(outcome, WorkResult)).to_dict()
                if isinstance(outcome, WorkResult):
                    outcome.spans = [finished, *outcome.spans]
        return outcomes

    def ping(self, timeout_s: float = 5.0) -> bool:
        # A lane busy executing is alive by definition; never block the
        # monitor behind a long-running item — probe only if the lock
        # can be taken NOW, and hold it for the whole exchange (a
        # release-then-reacquire would let an untimed execute slip in
        # and stall the monitor indefinitely).
        if not self._io_lock.acquire(blocking=False):
            return True
        try:
            if self._outstanding:
                # A lane with a window open is alive by definition;
                # injecting a ping between a pipelined send and its
                # collect would desequence the in-order replies.
                return True
            self._request_locked({"op": "ping"}, timeout_s=timeout_s)
            return True
        except (WorkerCrashError, RemoteExecutionError, FabricAuthError):
            return False
        finally:
            self._io_lock.release()

    def close(self) -> None:
        self._outstanding.clear()  # the window died with the connection
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
