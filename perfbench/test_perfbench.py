"""Self-tests of the benchmark's helpers (run with pytest)."""

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from perfbench import inputs, loadgen, stats
from perfbench.spans import Span, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_same_inputs_other_seed_other_inputs():
    def make(seed):
        return (inputs.dense_images(seed, 4).tobytes(),
                inputs.event_images(seed, 64).tobytes(),
                inputs.event_images(seed, 16, silent=False).tobytes(),
                inputs.duplicate_schedule(seed, 2000, 4096).tobytes(),
                inputs.poisson_arrivals(seed, 500.0, 2.0).tobytes(),
                inputs.check_sample(seed, 4096, 32).tobytes())

    first, again, other = make(3), make(3), make(4)
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_duplicate_schedule_repeats_within_the_window():
    ids = inputs.duplicate_schedule(7, 5000, 4096)
    last_seen = {}
    repeats = distances = 0
    for position, image in enumerate(ids):
        if image in last_seen and position - last_seen[image] <= 1024:
            repeats += 1
            distances = max(distances, position - last_seen[image])
        last_seen[image] = position
    assert 0.2 < repeats / len(ids) < 0.3
    assert distances <= 1024


def test_percentile_returns_sample_count():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)
    value, count = stats.percentile(range(101), 95)
    assert (value, count) == (95.0, 101)
    value, count = stats.percentile([], 50)
    assert count == 0 and np.isnan(value)


def test_open_loop_times_latency_from_due_time_and_reports_lag():
    async def send(index):
        if index == 0:
            time.sleep(0.2)   # stalls the loop: request 1 goes out late
        return index

    report = asyncio.run(loadgen.open_loop(send, [0.0, 0.05, 0.5]))
    latencies = [outcome.latency_s for outcome in report.outcomes]
    assert [outcome.reply for outcome in report.outcomes] == [0, 1, 2]
    # Request 1 was due at 50 ms but could only leave after the 200 ms
    # stall: the wait is charged to it and shows as generator lag.
    assert report.lags_s[1] > 0.1
    assert latencies[1] >= report.lags_s[1]
    assert report.lags_s[2] < 0.05 and latencies[2] < 0.05


def test_closed_loop_counts_failures():
    async def send(index):
        await asyncio.sleep(0.001)
        if index % 2:
            raise RuntimeError("refused")
        return index

    outcomes, wall = asyncio.run(loadgen.closed_loop(send, 2, 0.05))
    failed = [o for o in outcomes if o.error is not None]
    assert outcomes and 0 < len(failed) < len(outcomes) and wall >= 0.05


def test_self_time_subtracts_covered_child_intervals_once():
    spans = [Span(1, 1, 0, "root", 0.0, 10.0),
             Span(1, 2, 1, "a", 1.0, 4.0),
             Span(1, 3, 1, "b", 3.0, 6.0),      # overlaps a by 1
             Span(1, 4, 1, "c", 9.0, 12.0),     # runs past the parent
             Span(1, 5, 2, "a.child", 2.0, 3.0),
             Span(2, 1, 0, "other-pid", 0.0, 1.0)]
    selves = self_times(spans)
    assert selves[(1, 1)] == 10.0 - (6.0 - 1.0) - (10.0 - 9.0)
    assert selves[(1, 2)] == 3.0 - 1.0
    assert selves[(1, 3)] == 3.0
    assert selves[(2, 1)] == 1.0


def test_benchmark_json_lists_every_metric_the_code_reports():
    from perfbench.bench import END_TO_END
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
