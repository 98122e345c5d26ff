"""Deterministic fault injection for the worker fabric.

The fabric promises exactly-once, bit-identical results under lane
churn; :class:`ChaosPolicy` is how that promise gets *tested* instead of
asserted.  A policy is a seeded schedule of faults consulted at fixed
injection sites:

* ``dispatch`` — before a lane executes a chunk the group asks for the
  lane's fate; ``"kill"`` hard-kills the executor (SIGKILL for a process
  child, a closed socket for a remote lane) so the *real* crash
  machinery — eviction, requeue, probation re-admission — runs, not a
  simulation of it.
* ``exchange`` — before a remote lane's wire exchange; ``"sever"``
  closes the connection mid-protocol (the partition case).
* ``heartbeat`` — the monitor asks whether to corrupt a lane's liveness
  probe; a corrupted probe reads as a dead lane and triggers eviction
  even though the host is healthy (the false-positive case the
  probation machinery must absorb).
* ``client_frame`` — the serve TCP client asks for each outbound
  frame's fate: ``"dup"`` sends the frame twice (the server's keyed
  ledger must answer both identically while executing once), ``"delay"``
  sleeps before sending, ``"drop"`` swallows the frame (the reconnect /
  re-submission path must recover it).
* ``server_conn`` — the worker server asks, after answering a request,
  whether to hang up (the driver sees a vanished host).

**Determinism.**  Every decision is a pure function of ``(seed, site,
lane, k)`` where ``k`` counts that site+lane's prior draws — a SHA-256
over those four values, mapped to a uniform float.  Thread interleaving
can reorder *when* draws happen but never *what* the k-th draw for a
given site and lane decides, so the same seed replays the same fault
schedule exactly — the property the chaos suite's bit-equality
assertions stand on.

Explicit schedules override the dice: ``kill={"process-1": 3}`` kills
lane ``process-1`` on its 3rd dispatch, whatever the probabilities say.
``max_faults`` bounds the total injected faults so a long run cannot be
chewed to nothing, and every injected fault is appended to
:attr:`ChaosPolicy.events` for post-run assertions.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["ChaosEvent", "ChaosPolicy"]

#: The injection sites a policy may be consulted at.
SITES = ("dispatch", "exchange", "heartbeat", "client_frame",
         "server_conn")


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault, recorded for post-run assertions."""

    site: str                 # injection site name
    lane: str                 # lane / connection identity
    action: str               # "kill" | "sever" | "corrupt" | "dup" | ...
    draw: int                 # the site+lane draw index that fired
    at_monotonic: float = field(default_factory=time.monotonic)

    def to_dict(self) -> dict:
        return {"site": self.site, "lane": self.lane,
                "action": self.action, "draw": self.draw}


def _uniform(seed: int, site: str, lane: str, draw: int) -> float:
    """The k-th uniform for (seed, site, lane): stable under threading."""
    digest = hashlib.sha256(
        f"{seed}:{site}:{lane}:{draw}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ChaosPolicy:
    """A seeded, replayable fault schedule for the fabric.

    Parameters
    ----------
    seed:
        Drives every probabilistic draw; the same seed replays the same
        schedule exactly.
    kill:
        Explicit kill schedule ``{lane_name: k}`` — the lane is killed
        on its k-th dispatch (1-based).  Fires once per lane.
    sever:
        Explicit sever schedule ``{lane_name: k}`` — the remote lane's
        connection is closed on its k-th wire exchange (1-based).
    kill_prob / sever_prob / heartbeat_corrupt_prob:
        Per-draw probabilities for the probabilistic faults.
    dup_frame_prob / delay_frame_prob / drop_frame_prob:
        Per-frame probabilities on the serve client's outbound frames.
    delay_s:
        Sleep applied to a delayed frame.
    server_hangup_prob:
        Per-request probability that a worker server hangs the
        connection up after answering.
    max_faults:
        Hard cap on injected faults across all sites (``None`` = no
        cap); the cap makes long chaos runs converge instead of
        starving.
    """

    def __init__(
        self,
        seed: int = 0,
        kill: dict | None = None,
        sever: dict | None = None,
        kill_prob: float = 0.0,
        sever_prob: float = 0.0,
        heartbeat_corrupt_prob: float = 0.0,
        dup_frame_prob: float = 0.0,
        delay_frame_prob: float = 0.0,
        drop_frame_prob: float = 0.0,
        delay_s: float = 0.01,
        server_hangup_prob: float = 0.0,
        max_faults: int | None = None,
    ) -> None:
        for name, prob in (("kill_prob", kill_prob),
                           ("sever_prob", sever_prob),
                           ("heartbeat_corrupt_prob",
                            heartbeat_corrupt_prob),
                           ("dup_frame_prob", dup_frame_prob),
                           ("delay_frame_prob", delay_frame_prob),
                           ("drop_frame_prob", drop_frame_prob),
                           ("server_hangup_prob", server_hangup_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {prob}")
        self.seed = int(seed)
        self.kill = dict(kill or {})
        self.sever = dict(sever or {})
        self.kill_prob = kill_prob
        self.sever_prob = sever_prob
        self.heartbeat_corrupt_prob = heartbeat_corrupt_prob
        self.dup_frame_prob = dup_frame_prob
        self.delay_frame_prob = delay_frame_prob
        self.drop_frame_prob = drop_frame_prob
        self.delay_s = delay_s
        self.server_hangup_prob = server_hangup_prob
        self.max_faults = max_faults
        self.events: list[ChaosEvent] = []
        self._draws: dict[tuple[str, str], int] = {}
        self._fired: set[tuple[str, str]] = set()   # one-shot schedules
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Core draw machinery
    # ------------------------------------------------------------------
    def _next_draw(self, site: str, lane: str) -> int:
        key = (site, lane)
        draw = self._draws.get(key, 0) + 1
        self._draws[key] = draw
        return draw

    def _budget_left(self) -> bool:
        return (self.max_faults is None
                or len(self.events) < self.max_faults)

    def _record(self, site: str, lane: str, action: str,
                draw: int) -> None:
        self.events.append(ChaosEvent(site=site, lane=lane,
                                      action=action, draw=draw))
        # Mirror every fault into the unified telemetry plane: a counter
        # series per (site, action) and a flight-recorder event, so
        # ``repro top`` and the scrape endpoint see the drill live.
        from repro.telemetry import get_registry, get_tracer
        get_registry().counter(
            "repro_chaos_faults_total",
            "Faults injected by the chaos policy, by site and action",
            labelnames=("site", "action"),
        ).labels(site=site, action=action).inc()
        get_tracer().event("chaos_fault", site=site, lane=lane,
                           action=action, draw=draw)

    def _decide(self, site: str, lane: str, prob: float,
                schedule: dict | None, action: str) -> bool:
        """One draw at a site; True means the fault fires (and is
        recorded).  Lock-held bookkeeping keeps the per-(site, lane)
        draw counter exact under concurrent dispatchers."""
        with self._lock:
            draw = self._next_draw(site, lane)
            if not self._budget_left():
                return False
            if schedule is not None and lane in schedule:
                if (site, lane) not in self._fired \
                        and draw >= int(schedule[lane]):
                    self._fired.add((site, lane))
                    self._record(site, lane, action, draw)
                    return True
            if prob > 0.0 and _uniform(self.seed, site, lane,
                                       draw) < prob:
                self._record(site, lane, action, draw)
                return True
            return False

    # ------------------------------------------------------------------
    # Injection sites
    # ------------------------------------------------------------------
    def dispatch_fate(self, lane: str) -> str | None:
        """Consulted by the group before a lane executes a chunk."""
        if self._decide("dispatch", lane, self.kill_prob, self.kill,
                        "kill"):
            return "kill"
        return None

    def exchange_fate(self, lane: str) -> str | None:
        """Consulted by a remote lane before each wire exchange."""
        if self._decide("exchange", lane, self.sever_prob, self.sever,
                        "sever"):
            return "sever"
        return None

    def corrupt_heartbeat(self, lane: str) -> bool:
        """Consulted by the monitor: report this healthy lane as dead?"""
        return self._decide("heartbeat", lane,
                            self.heartbeat_corrupt_prob, None, "corrupt")

    def frame_fate(self, lane: str = "client") -> str | None:
        """Consulted by the serve TCP client per outbound frame.

        At most one fate per frame, drawn in fixed order (drop beats dup
        beats delay) so a schedule replays exactly.
        """
        if self._decide("client_frame", lane, self.drop_frame_prob,
                        None, "drop"):
            return "drop"
        if self._decide("client_frame", lane, self.dup_frame_prob,
                        None, "dup"):
            return "dup"
        if self._decide("client_frame", lane, self.delay_frame_prob,
                        None, "delay"):
            return "delay"
        return None

    def server_hangup(self, lane: str = "conn") -> bool:
        """Consulted by the worker server after answering a request."""
        return self._decide("server_conn", lane,
                            self.server_hangup_prob, None, "hangup")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready fault counts by site and action."""
        counts: dict[str, int] = {}
        for event in list(self.events):
            key = f"{event.site}:{event.action}"
            counts[key] = counts.get(key, 0) + 1
        return {"seed": self.seed, "faults": len(self.events),
                "by_site": counts}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChaosPolicy(seed={self.seed}, "
                f"faults={len(self.events)})")
