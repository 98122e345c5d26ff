"""``repro top`` — a live terminal view of a running server.

Polls a ``repro serve`` daemon over its existing TCP ``op:`` surface
(``metrics`` for the snapshot, ``telemetry`` for the unified registry)
and renders per-deployment throughput / queue depth / p50 / p99 plus
per-lane fabric health (executed, stolen, retries, heartbeat age) and
chaos/retry counters — the operator's eyes on the fabric without a
Prometheus stack.

``render_top`` is a pure snapshot-dicts → text function so tests (and
the CI smoke job) can pin the output shape without a TTY; ``run_top``
is the poll loop behind ``repro top`` (``--once`` prints a single frame
and exits, the CI mode).
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["render_top", "run_top"]


def _fmt(value, width: int = 8, digits: int = 1) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.{digits}f}"
    return f"{value!s:>{width}}"


def _lane_values(telemetry: dict | None, family: str) -> dict:
    """``{lane: value}`` from a lane-labelled gauge/counter family."""
    if not telemetry:
        return {}
    out = {}
    for entry in (telemetry.get(family) or {}).get("series", []):
        lane = entry.get("labels", {}).get("lane")
        if lane is not None and "value" in entry:
            out[lane] = entry["value"]
    return out


def _lane_means(telemetry: dict | None, family: str) -> dict:
    """``{lane: sum/count}`` from a lane-labelled histogram family."""
    if not telemetry:
        return {}
    out = {}
    for entry in (telemetry.get(family) or {}).get("series", []):
        lane = entry.get("labels", {}).get("lane")
        count = entry.get("count", 0)
        if lane is not None and count:
            out[lane] = entry.get("sum", 0.0) / count
    return out


def _deployment_rows(snapshot: dict) -> list[tuple]:
    """(name, stats-dict) rows: per-deployment blocks when present,
    else the aggregate snapshot as one ``all`` row."""
    per = snapshot.get("per_deployment")
    if per:
        return sorted(per.items())
    return [("all", snapshot)]


def render_top(snapshot: dict, telemetry: dict | None = None,
               target: str = "") -> str:
    """One frame of the live view, from wire-shaped snapshot dicts."""
    lines: list[str] = []
    stamp = time.strftime("%H:%M:%S")
    lines.append(f"repro top - {target or 'server'} @ {stamp}   "
                 f"throughput {snapshot.get('throughput_rps', 0.0):.1f} rps  "
                 f"queue {snapshot.get('queue_depth', 0)}  "
                 f"completed {snapshot.get('completed', 0)}  "
                 f"rejected {snapshot.get('rejected', 0)}  "
                 f"timed_out {snapshot.get('timed_out', 0)}  "
                 f"deduped {snapshot.get('deduped', 0)}  "
                 f"cached {snapshot.get('cached', 0)}")
    lines.append("")
    header = (f"{'deployment':<14}{'rps':>8}{'queue':>7}{'batch':>7}"
              f"{'p50 ms':>9}{'p99 ms':>9}{'wait p99':>10}{'done':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in _deployment_rows(snapshot):
        latency = stats.get("latency_ms", {})
        wait = stats.get("queue_wait_ms", {})
        lines.append(
            f"{name:<14}"
            f"{_fmt(stats.get('throughput_rps', 0.0))}"
            f"{_fmt(stats.get('queue_depth', 0), 7)}"
            f"{_fmt(stats.get('mean_batch_size', 0.0), 7)}"
            f"{_fmt(latency.get('p50', 0.0), 9, 2)}"
            f"{_fmt(latency.get('p99', 0.0), 9, 2)}"
            f"{_fmt(wait.get('p99', 0.0), 10, 2)}"
            f"{_fmt(stats.get('completed', 0))}")

    fabric = snapshot.get("fabric") or {}
    executed = fabric.get("executed") or {}
    if executed:
        # Per-lane pipelining state lives in the unified registry: the
        # in-flight gauge is the *current* window depth, the occupancy
        # histogram's sum/count gives the mean depth at each send.
        inflight = _lane_values(telemetry, "repro_fabric_inflight_chunks")
        occupancy = _lane_means(telemetry,
                                "repro_fabric_window_occupancy")
        lines.append("")
        lane_header = (f"{'lane':<22}{'executed':>10}{'inflight':>10}"
                       f"{'win avg':>9}{'heartbeat age s':>17}")
        lines.append(lane_header)
        lines.append("-" * len(lane_header))
        ages = fabric.get("heartbeat_age_s") or {}
        for lane in sorted(executed):
            age = ages.get(lane)
            depth = inflight.get(lane)
            mean = occupancy.get(lane)
            lines.append(
                f"{lane:<22}{executed[lane]:>10}"
                f"{'-' if depth is None else int(depth):>10}"
                f"{'-' if mean is None else format(mean, '.2f'):>9}"
                f"{age if age is None else format(age, '.1f'):>17}")
        lines.append(
            f"fabric: batched={fabric.get('batched', 0)} "
            f"pipelined={fabric.get('pipelined', 0)} "
            f"stolen={fabric.get('stolen', 0)} "
            f"retries={fabric.get('retries', 0)} "
            f"requeued={fabric.get('requeued', 0)} "
            f"crashes={fabric.get('worker_crashes', 0)} "
            f"poisoned={fabric.get('poisoned', 0)}")
    cache = fabric.get("result_cache")
    if cache:
        lines.append(
            f"result cache: entries={cache.get('entries', 0)}"
            f"/{cache.get('capacity', 0)} "
            f"hits={cache.get('hits', 0)} "
            f"misses={cache.get('misses', 0)} "
            f"evictions={cache.get('evictions', 0)}")

    if telemetry:
        chaos = telemetry.get("repro_chaos_faults_total")
        if chaos and chaos.get("series"):
            lines.append("")
            lines.append("chaos faults:")
            for entry in chaos["series"]:
                labels = entry.get("labels", {})
                tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                lines.append(f"  {tag or 'total'}: "
                             f"{int(entry.get('value', 0))}")
        spans = telemetry.get("repro_spans_finished")
        if spans and spans.get("series"):
            total = sum(e.get("value", 0) for e in spans["series"])
            lines.append(f"tracing: {int(total)} spans recorded")
    return "\n".join(lines) + "\n"


async def _one_frame(host: str, port: int, deployment=None) -> str:
    from repro.serve.transport import TcpClient

    async with TcpClient(host, port) as client:
        snapshot = await client.metrics(deployment=deployment)
        try:
            telemetry = await client.telemetry()
        except Exception:
            telemetry = None  # pre-telemetry server: degrade gracefully
    return render_top(snapshot, telemetry, target=f"{host}:{port}")


def run_top(host: str, port: int, interval_s: float = 2.0,
            once: bool = False, deployment=None) -> int:
    """Poll and render until Ctrl-C (or a single frame with ``once``)."""
    try:
        while True:
            frame = asyncio.run(_one_frame(host, port, deployment))
            if once:
                print(frame, end="")
                return 0
            # Clear-and-home keeps the frame stable like top(1).
            print("\x1b[2J\x1b[H" + frame, end="", flush=True)
            time.sleep(interval_s)
    except KeyboardInterrupt:
        print()
        return 0
    except ConnectionError as error:
        raise SystemExit(f"repro top: cannot reach {host}:{port} ({error})")
