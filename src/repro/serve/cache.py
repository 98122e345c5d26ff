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


class ResultCache:
    """Bounded LRU of served results keyed by content.

    ``capacity`` is the entry count (0 disables the cache entirely —
    ``get`` always misses silently, ``put`` drops).  Entries are
    whatever the server chooses to replay (it stores the full
    :class:`~repro.serve.server.InferenceResult`); the cache never
    inspects them.  Thread-safe: the registry's scrape samplers and the
    event loop may touch it concurrently.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(
                f"result cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple[str, str], object] = \
            OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def _counter(self, event: str):
        return get_registry().counter(
            f"repro_result_cache_{event}_total",
            f"Content-addressed result cache {event}")

    def get(self, fingerprint: str, digest: str):
        """The cached entry for a content pair, or None (counted)."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get((fingerprint, digest))
            if entry is not None:
                self._entries.move_to_end((fingerprint, digest))
                self.hits += 1
            else:
                self.misses += 1
        if entry is not None:
            self._counter("hits").inc()
        else:
            self._counter("misses").inc()
        return entry

    def put(self, fingerprint: str, digest: str, entry) -> None:
        """Store a served result; evicts LRU beyond capacity."""
        if not self.enabled:
            return
        evicted = 0
        with self._lock:
            self._entries[(fingerprint, digest)] = entry
            self._entries.move_to_end((fingerprint, digest))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            self._counter("evictions").inc(evicted)

    def to_dict(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    "hits": self.hits,
                    "misses": self.misses,
                    "evictions": self.evictions}


class ResultLedger:
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

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"ledger capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self.duplicates = 0              # lookups answered from the ledger
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    def record(self, key: str, result) -> bool:
        """Store a completed result; False if the key was already there
        (a duplicate execution completed — the stored result wins)."""
        if not key:
            return True
        with self._lock:
            if key in self._entries:
                self.duplicates += 1
                return False
            self._entries[key] = result
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def get(self, key: str):
        """The recorded result for a key (None = never completed here);
        a hit counts as a deduplicated answer."""
        if not key:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.duplicates += 1
            return result

    def to_dict(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries),
                    "capacity": self.capacity,
                    "duplicates": self.duplicates}
