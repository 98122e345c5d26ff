"""The inference server's two result stores: a content cache and a keyed
ledger.

The fabric's determinism contract makes inference a pure function of
``(deployment content, image bytes)`` — the same image on the same
deployment produces bit-identical logits and traces whatever batch it
rode in, whichever lane ran it.  That purity is cacheable: the server
digests each admitted image, and a request whose ``(deployment
fingerprint, image digest)`` pair was already served answers straight
from a bounded LRU — no queue, no batcher, no engine — before batching
ever sees it.

Duplicate-heavy load is the norm, not the edge case: retried frames,
health-check canaries, fixed test vectors, and replayed capture files
all resend byte-identical images.  The idempotency-key ledger
(:class:`ResultLedger`) only dedups *cooperating* clients (same key);
the result cache dedups by *content*, so two unrelated clients sending
the same image share one execution.

The key is content on both sides — :attr:`Deployment.fingerprint`
hashes the network weights, config and calibration, so a blue/green
rollout to retrained weights changes the fingerprint and misses
cleanly; no invalidation hooks needed.  Hits, misses and evictions are
counted in the process-wide telemetry registry
(``repro_result_cache_*_total``).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.telemetry import get_registry

__all__ = ["ResultCache", "ResultLedger", "batch_digest"]


def batch_digest(images: np.ndarray) -> str:
    """SHA-256 over an image array's dtype, shape and raw bytes.

    Shape and dtype are folded in so a (3, 32, 32) float image never
    collides with a differently-shaped reinterpretation of the same
    bytes.  Works for single images and stacked batches alike.
    """
    images = np.ascontiguousarray(images)
    digest = hashlib.sha256()
    digest.update(str(images.dtype).encode())
    digest.update(repr(images.shape).encode())
    digest.update(images.tobytes())
    return digest.hexdigest()


class _BoundedLRU:
    """An ``OrderedDict`` LRU of at most ``capacity`` entries behind one
    lock; :meth:`to_dict` also exports the subclass's ``_COUNTERS``."""

    _COUNTERS: tuple[str, ...] = ()

    def __init__(self, capacity: int, minimum: int, label: str) -> None:
        if capacity < minimum:
            raise ValueError(f"{label} capacity must be >= {minimum}, "
                             f"got {capacity}")
        self.capacity = capacity
        self.__dict__.update(dict.fromkeys(self._COUNTERS, 0))
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, key):
        """The entry under ``key``, made most recent; lock held."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _store(self, key, entry) -> int:
        """Store as most recent; returns how many fell out; lock held."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        evicted = max(0, len(self._entries) - self.capacity)
        for _ in range(evicted):
            self._entries.popitem(last=False)
        return evicted

    def to_dict(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    **{name: getattr(self, name) for name in self._COUNTERS}}


class ResultCache(_BoundedLRU):
    """Bounded LRU of served results keyed by content.

    ``capacity`` is the entry count (0 disables the cache entirely —
    ``get`` always misses silently, ``put`` drops).  Entries are
    whatever the server chooses to replay (it stores the full
    :class:`~repro.serve.server.InferenceResult`); the cache never
    inspects them.  Thread-safe: the registry's scrape samplers and the
    event loop may touch it concurrently.
    """

    _COUNTERS = ("hits", "misses", "evictions")

    def __init__(self, capacity: int = 128) -> None:
        super().__init__(capacity, 0, "result cache")

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def _counter(self, event: str):
        return get_registry().counter(
            f"repro_result_cache_{event}_total",
            f"Content-addressed result cache {event}")

    def get(self, fingerprint: str, digest: str):
        """The cached entry for a content pair, or None (counted)."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._lookup((fingerprint, digest))
            hit = entry is not None
            self.hits += hit
            self.misses += not hit
        self._counter("hits" if hit else "misses").inc()
        return entry

    def put(self, fingerprint: str, digest: str, entry) -> None:
        """Store a served result; evicts LRU beyond capacity."""
        if not self.enabled:
            return
        with self._lock:
            evicted = self._store((fingerprint, digest), entry)
            self.evictions += evicted
        if evicted:
            self._counter("evictions").inc(evicted)


class ResultLedger(_BoundedLRU):
    """Bounded completed-result map keyed by client idempotency key.

    The server's exactly-once store: a completed request's result is
    recorded under its key, and a re-submission of the *same* key — a
    duplicated wire frame, a client retry after reconnect — is answered
    from the ledger instead of executing again.  Results are
    bit-identical either way (the fabric contract), so the ledger
    changes *work done*, never *answers given*.

    Capacity-bounded LRU: the oldest entry falls out once ``capacity``
    is exceeded, keeping a long-lived server's memory flat.  A key
    falling out re-opens the (tiny) window for duplicate execution —
    which is safe, just wasteful — so size the capacity to cover the
    client retry horizon, not the full run.
    """

    _COUNTERS = ("duplicates",)      # lookups answered from the ledger

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity, 1, "ledger")

    def record(self, key: str, result) -> bool:
        """Store a completed result; False if the key was already there
        (a duplicate execution completed — the stored result wins)."""
        if not key:
            return True
        with self._lock:
            if key in self._entries:
                self.duplicates += 1
                return False
            self._store(key, result)
            return True

    def get(self, key: str):
        """The recorded result for a key (None = never completed here);
        a hit counts as a deduplicated answer."""
        if not key:
            return None
        with self._lock:
            result = self._lookup(key)
            self.duplicates += result is not None
            return result
