"""Open- and closed-loop request generators for the serving workload."""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One request: its latency from the due time, and reply or error."""

    index: int
    latency_s: float
    done_at: float                       # time.perf_counter() at completion
    reply: object = None
    error: BaseException | None = None


@dataclass
class OpenLoopReport:
    outcomes: list = field(default_factory=list)
    lags_s: list = field(default_factory=list)   # send time - due time


async def open_loop(send, arrivals) -> OpenLoopReport:
    """Send request ``i`` at ``arrivals[i]`` seconds after the start.

    Requests go out on schedule whether or not earlier ones completed
    (independent users).  Each latency is measured from the request's
    due time, not from when the generator got round to sending it, so a
    stall that delays later sends is charged to those requests; how late
    the generator ran is reported separately as its lag.
    """
    report = OpenLoopReport()

    async def one(index: int, due: float) -> Outcome:
        try:
            reply = await send(index)
        except Exception as error:  # noqa: BLE001 — counted as failed
            done = time.perf_counter()
            return Outcome(index, done - due, done, error=error)
        done = time.perf_counter()
        return Outcome(index, done - due, done, reply=reply)

    start = time.perf_counter()
    tasks = []
    for index, offset in enumerate(arrivals):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        report.lags_s.append(max(0.0, time.perf_counter() - due))
        tasks.append(asyncio.create_task(one(index, due)))
    report.outcomes = list(await asyncio.gather(*tasks))
    return report


async def closed_loop(send, outstanding: int, duration_s: float,
                      first_index: int = 0) -> tuple[list, float]:
    """Keep ``outstanding`` requests in flight for ``duration_s``.

    Returns the outcomes and the wall time from the start to the last
    completion; request indices count up from ``first_index``.
    """
    indices = itertools.count(first_index)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    deadline = start + duration_s

    async def client() -> None:
        while time.perf_counter() < deadline:
            index = next(indices)
            sent = time.perf_counter()
            try:
                reply = await send(index)
            except Exception as error:  # noqa: BLE001 — counted as failed
                done = time.perf_counter()
                outcomes.append(Outcome(index, done - sent, done,
                                        error=error))
                continue
            done = time.perf_counter()
            outcomes.append(Outcome(index, done - sent, done, reply=reply))

    await asyncio.gather(*(client() for _ in range(outstanding)))
    return outcomes, time.perf_counter() - start


def sliced(values, times, start: float, slice_s: float,
           min_samples: int = 20) -> list[list]:
    """Group ``values`` by the ``slice_s``-long slice of ``times``
    (counted from ``start``) they fall in; slices with fewer than
    ``min_samples`` values are dropped."""
    slices: dict[int, list] = {}
    for value, at in zip(values, times):
        slices.setdefault(int((at - start) // slice_s), []).append(value)
    return [slices[key] for key in sorted(slices)
            if len(slices[key]) >= min_samples]
