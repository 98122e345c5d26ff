"""The serving layer: coalescing determinism, policies, backpressure, SLOs.

The contracts pinned here:

* batching is a pure re-grouping — the same request set served through
  ``max_batch=1`` and through coalesced micro-batches yields identical
  predictions and identical summed trace counters, both equal to a
  direct batched ``Accelerator`` run;
* warm-instance reuse (the engine cache) is bit-identical to a cold
  compile;
* the bounded queue applies real backpressure (``wait=False`` rejects,
  ``wait=True`` blocks) and graceful shutdown drains in-flight work;
* batch policies respect their knobs (``max_batch`` cap, greedy
  ``max_wait``, deadline headroom shrinking as service estimates grow);
* the TCP transport round-trips predictions, metrics and errors.

No pytest-asyncio in the toolchain: tests drive coroutines with
``asyncio.run`` explicitly.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.core import (
    Accelerator,
    AcceleratorConfig,
    TraceMerge,
    clear_engine_cache,
    compile_network,
    create_engine,
    engine_cache_stats,
    warm_engine,
)
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    RequestTimeoutError,
    ServeError,
    ShapeError,
)
from repro.models import performance_network
from repro.serve import (
    DeadlinePolicy,
    EnginePool,
    GreedyPolicy,
    InferenceServer,
    LoadGenerator,
    ServerMetrics,
    TcpClient,
    available_policies,
    create_policy,
    start_tcp_server,
)
from repro.runtime import (decode_frame, encode_frame, parse_frame_prefix,
                           read_frame)
from repro.runtime.codec import FRAME_PREFIX_LEN
from repro.snn import SNNModel


pytestmark = pytest.mark.usefixtures("fabric_leak_check")


async def read_reply(reader: asyncio.StreamReader) -> dict:
    """One reply frame's payload off a raw asyncio connection."""
    header_len, body_len = parse_frame_prefix(
        await reader.readexactly(FRAME_PREFIX_LEN))
    header = await reader.readexactly(header_len)
    return decode_frame(header, await reader.readexactly(body_len))[0]


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def tiny_images(rng, network, count):
    return rng.random((count,) + network.input_shape)


def direct_run(network, images):
    """Ground truth: one batched run on a cold-compiled engine."""
    engine = create_engine(
        "vectorized",
        compile_network(network, AcceleratorConfig.for_network(network)))
    return engine.run_batch(images)


def serve(network, images, **server_kwargs):
    """Serve a request set in-process; returns (results, snapshot)."""

    async def main():
        async with InferenceServer(network, **server_kwargs) as server:
            results = await server.submit_many(images)
            return results, server.snapshot()

    return asyncio.run(main())


class TestBatchingDeterminism:
    def test_coalesced_equals_serial_equals_direct(self, rng):
        """batch=1 serving, coalesced serving and Accelerator.run agree."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 20)
        logits, traces = direct_run(net, images)

        serial, _ = serve(net, images, max_batch=1, max_wait_ms=0.0)
        coalesced, snapshot = serve(net, images, max_batch=8,
                                    max_wait_ms=20.0)
        assert snapshot.mean_batch_size > 1  # coalescing actually happened

        expected = logits.argmax(axis=1)
        for results in (serial, coalesced):
            np.testing.assert_array_equal(
                [r.prediction for r in results], expected)
            summed = TraceMerge()
            for result in results:
                summed.merge(result.trace)
            assert summed == TraceMerge.from_traces(traces)

    def test_per_request_accounting_matches_single_image(self, rng):
        """A request's trace slice equals its own single-image run."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 6)
        results, _ = serve(net, images, max_batch=6, max_wait_ms=20.0)
        _, traces = direct_run(net, images)
        for i, result in enumerate(results):
            single = TraceMerge.from_traces([traces[i]])
            assert result.trace == single
            assert result.cycles == single.total_cycles
            assert result.energy_pj > 0
            assert result.model_latency_us > 0
            np.testing.assert_array_equal(result.logits,
                                          direct_run(net, images)[0][i])

    def test_results_keep_submission_order(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 12)
        results, _ = serve(net, images, max_batch=4)
        assert [r.request_id for r in results] == list(range(12))

    def test_process_mode_matches_thread_mode(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 8)
        thread_results, _ = serve(net, images, max_batch=4)
        process_results, _ = serve(net, images, max_batch=4,
                                   mode="process")
        np.testing.assert_array_equal(
            [r.prediction for r in process_results],
            [r.prediction for r in thread_results])
        for a, b in zip(process_results, thread_results):
            assert a.trace == b.trace


class TestWarmCache:
    def test_warm_engine_dedupes_by_content(self, rng):
        clear_engine_cache()
        net_a = tiny_network(rng)
        # Same geometry and weights (same rng stream restart): rebuild
        # an identical network object.
        config = AcceleratorConfig.for_network(net_a)
        first = warm_engine(net_a, config)
        again = warm_engine(net_a, config)
        assert first is again
        stats = engine_cache_stats()
        assert stats["engine_hits"] >= 1
        assert stats["engine_entries"] == 1

    def test_warm_reuse_bit_identical_to_cold(self, rng):
        clear_engine_cache()
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        images = tiny_images(rng, net, 4)
        cold_logits, cold_traces = direct_run(net, images)
        engine = warm_engine(net, config)
        for _ in range(2):  # reuse, not just first use
            logits, traces = engine.run_batch(images)
            np.testing.assert_array_equal(logits, cold_logits)
            assert (TraceMerge.from_traces(traces)
                    == TraceMerge.from_traces(cold_traces))

    def test_warm_accelerator_deploy_reuses_compile(self, rng):
        clear_engine_cache()
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        snn = SNNModel(net)
        first = Accelerator(config, backend="vectorized", warm=True)
        first.deploy(snn)
        second = Accelerator(config, backend="vectorized", warm=True)
        second.deploy(snn)
        assert first.compiled is second.compiled
        images = tiny_images(rng, net, 3)
        warm_logits, _ = second.run_logits(images)
        cold_logits, _ = direct_run(net, images)
        np.testing.assert_array_equal(warm_logits, cold_logits)

    def test_compile_cache_shared_across_calibrations(self, rng):
        """warm_compile ignores calibration: compilation can't see it."""
        import dataclasses

        from repro.core import DEFAULT_LATENCY, warm_compile

        clear_engine_cache()
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        other = dataclasses.replace(DEFAULT_LATENCY,
                                    conv_row_overhead=99)
        assert warm_compile(net, config) is warm_compile(net, config)
        assert warm_engine(net, config).compiled is \
            warm_engine(net, config, calibration=other).compiled
        # The engines themselves differ — calibration changes traces.
        assert warm_engine(net, config) is not \
            warm_engine(net, config, calibration=other)
        assert engine_cache_stats()["compiled_entries"] == 1

    def test_different_content_not_shared(self, rng):
        clear_engine_cache()
        net_a = tiny_network(rng)
        net_b = tiny_network(rng)  # new seed draw -> different weights
        config_a = AcceleratorConfig.for_network(net_a)
        config_b = AcceleratorConfig.for_network(net_b)
        assert warm_engine(net_a, config_a) is not \
            warm_engine(net_b, config_b)


class TestPolicies:
    def test_registry(self):
        assert "greedy" in available_policies()
        assert "deadline" in available_policies()
        with pytest.raises(ConfigurationError):
            create_policy("lifo")
        policy = GreedyPolicy(max_batch=4)
        assert create_policy(policy) is policy

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            GreedyPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            GreedyPolicy(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            DeadlinePolicy(slo_ms=0.0)

    def test_greedy_deadline_is_arrival_plus_wait(self):
        policy = GreedyPolicy(max_batch=8, max_wait_ms=10.0)
        assert policy.flush_deadline(100.0) == pytest.approx(100.0 + 0.01)

    def test_deadline_headroom_shrinks_with_service_time(self):
        policy = DeadlinePolicy(max_batch=8, slo_ms=100.0)
        before = policy.flush_deadline(0.0)
        # Observe slow full batches: the estimate rises, so the policy
        # must flush earlier to protect the SLO.
        for _ in range(10):
            policy.observe(batch_size=8, service_s=0.06)
        after = policy.flush_deadline(0.0)
        assert after < before
        assert policy.expected_service_s > 0.05

    def test_deadline_never_negative_headroom(self):
        policy = DeadlinePolicy(max_batch=8, slo_ms=10.0)
        for _ in range(10):
            policy.observe(batch_size=8, service_s=1.0)  # way over SLO
        # Deadline degenerates to "flush immediately", never to the past
        # beyond the arrival time itself.
        assert policy.flush_deadline(50.0) == pytest.approx(50.0)

    def test_max_batch_respected_under_burst(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 30)
        _, snapshot = serve(net, images, max_batch=4, max_wait_ms=50.0)
        assert max(snapshot.batch_size_histogram) <= 4

    def test_deadline_policy_meets_generous_slo(self, rng):
        """End to end: moderate load, p99 under a CI-safe SLO."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 40)

        async def main():
            server = InferenceServer(net, policy="deadline",
                                     max_batch=8, slo_ms=500.0)
            async with server:
                await LoadGenerator(server.submit,
                                    rate_rps=300.0).run(images)
                return server.snapshot()

        snapshot = asyncio.run(main())
        assert snapshot.completed == 40
        assert snapshot.latency_ms["p99"] < 500.0


class TestServingHardening:
    """Per-request timeouts and priorities in the batch policies."""

    def test_timeout_fails_waiting_request(self, rng):
        """A request expires while coalescing waits for more arrivals."""
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]

        async def main():
            # Greedy policy with a huge wait: without the per-request
            # deadline the lone request would sit for 10 s.
            server = InferenceServer(net, max_batch=8,
                                     max_wait_ms=10_000.0)
            async with server:
                started = asyncio.get_running_loop().time()
                with pytest.raises(RequestTimeoutError):
                    await server.submit(image, timeout_ms=50.0)
                waited = asyncio.get_running_loop().time() - started
                return waited, server.metrics.timed_out, \
                    server.snapshot().to_dict()

        waited, timed_out, payload = asyncio.run(main())
        assert waited < 5.0          # expired promptly, not at flush
        assert timed_out == 1
        assert payload["timed_out"] == 1

    def test_timeout_zero_rejected(self, rng):
        net = tiny_network(rng)

        async def main():
            async with InferenceServer(net) as server:
                with pytest.raises(ServeError):
                    await server.submit(tiny_images(rng, net, 1)[0],
                                        timeout_ms=0.0)

        asyncio.run(main())

    def test_fast_requests_unaffected_by_timeout(self, rng):
        """A generous timeout never changes results."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 6)
        logits, _ = direct_run(net, images)

        async def main():
            async with InferenceServer(net, max_batch=4) as server:
                return await server.submit_many(images,
                                                timeout_ms=30_000.0)

        results = asyncio.run(main())
        np.testing.assert_array_equal([r.prediction for r in results],
                                      logits.argmax(axis=1))

    def test_priority_selects_batch_membership(self):
        """The policies' shared select(): high priority first, FIFO
        within a level, arrival order inside the batch."""
        import time as _time
        from dataclasses import dataclass as _dataclass

        from repro.serve.batcher import Batcher

        @_dataclass
        class FakeRequest:
            name: str
            priority: int
            enqueued_at: float
            deadline: float | None = None

        async def main():
            queue = asyncio.Queue()
            policy = GreedyPolicy(max_batch=2, max_wait_ms=0.0)
            batcher = Batcher(queue, policy)
            now = _time.perf_counter()
            for i, (name, priority) in enumerate(
                    [("a", 0), ("b", 0), ("c", 5), ("d", 5)]):
                queue.put_nowait(FakeRequest(name, priority, now + i / 1e6))
            first = await batcher.next_batch()
            second = await batcher.next_batch()
            return [r.name for r in first], [r.name for r in second]

        first, second = asyncio.run(main())
        assert first == ["c", "d"]    # high priority, arrival order
        assert second == ["a", "b"]   # leftovers drain next

    def test_waiting_buffer_bounded_by_two_batches(self):
        """Overflow stays in the bounded intake queue (backpressure),
        not in the batcher's lookahead buffer."""
        import time as _time
        from dataclasses import dataclass as _dataclass

        from repro.serve.batcher import Batcher

        @_dataclass
        class FakeRequest:
            priority: int
            enqueued_at: float
            deadline: float | None = None

        async def main():
            queue = asyncio.Queue()
            policy = GreedyPolicy(max_batch=2, max_wait_ms=0.0)
            batcher = Batcher(queue, policy)
            now = _time.perf_counter()
            for i in range(20):
                queue.put_nowait(FakeRequest(0, now + i / 1e6))
            batch = await batcher.next_batch()
            return len(batch), batcher.waiting, queue.qsize()

        batch_len, waiting, queued = asyncio.run(main())
        assert batch_len == 2
        assert waiting <= 2          # capacity (4) minus the flush (2)
        assert queued == 20 - batch_len - waiting

    def test_priority_end_to_end_results_unchanged(self, rng):
        """Priorities re-order dispatch, never answers."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 8)
        logits, _ = direct_run(net, images)

        async def main():
            async with InferenceServer(net, max_batch=4,
                                       max_wait_ms=20.0) as server:
                tasks = [asyncio.create_task(
                    server.submit(image, priority=i % 3))
                    for i, image in enumerate(images)]
                return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        np.testing.assert_array_equal([r.prediction for r in results],
                                      logits.argmax(axis=1))

    def test_timeout_propagates_over_tcp_as_typed_error(self, rng):
        """Satellite contract: a timed-out request answers with a
        structured error instead of hanging the connection."""
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]

        async def main():
            server = InferenceServer(net, max_batch=8,
                                     max_wait_ms=10_000.0)
            async with server:
                tcp, port = await start_tcp_server(server)
                try:
                    async with TcpClient(port=port) as client:
                        with pytest.raises(RequestTimeoutError):
                            await asyncio.wait_for(
                                client.infer(image, timeout_ms=50.0),
                                timeout=5)
                        # The connection survives the error.
                        assert await client.ping()
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        asyncio.run(main())


class TestServingOnFabric:
    """The engine pool is a policy layer over repro.runtime."""

    def test_remote_lane_crash_mid_serving_recovers(self, rng):
        """Satellite contract: a worker dying mid-batch must not
        deadlock the pool — requests complete on a healthy lane and
        the crash is surfaced in the metrics."""
        from repro.runtime import WorkerServer

        net = tiny_network(rng)
        images = tiny_images(rng, net, 4)
        logits, _ = direct_run(net, images)

        server = WorkerServer().start()
        spec = f"127.0.0.1:{server.port}"
        server.close()  # the host is already gone when serving starts

        async def main():
            inference = InferenceServer(
                net, max_batch=2, workers=[spec, "thread"])
            async with inference:
                results = await inference.submit_many(images)
                return results, inference.snapshot().to_dict()

        results, payload = asyncio.run(main())
        np.testing.assert_array_equal([r.prediction for r in results],
                                      logits.argmax(axis=1))
        assert payload["worker_crashes"] == 1

    def test_remote_lane_serves_bit_identical(self, rng):
        from repro.runtime import WorkerServer

        net = tiny_network(rng)
        images = tiny_images(rng, net, 6)
        logits, traces = direct_run(net, images)

        async def main():
            with WorkerServer() as worker:
                spec = f"127.0.0.1:{worker.port}"
                async with InferenceServer(net, max_batch=4,
                                           workers=[spec]) as inference:
                    return await inference.submit_many(images)

        results = asyncio.run(main())
        np.testing.assert_array_equal([r.prediction for r in results],
                                      logits.argmax(axis=1))
        summed = TraceMerge()
        for result in results:
            summed.merge(result.trace)
        assert summed == TraceMerge.from_traces(traces)

    def test_snapshot_surfaces_fabric_counters_and_ledger(self, rng):
        """A fabric-backed server's snapshot carries the scheduling
        counters and the server's exactly-once request ledger under
        ``fabric`` — the fabric itself keeps no ledger."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 4)

        async def main():
            async with InferenceServer(net, max_batch=2,
                                       workers=["thread"]) as inference:
                await inference.submit_many(images)
                return inference.snapshot().to_dict()

        payload = asyncio.run(main())
        fabric = payload["fabric"]
        for counter in ("requeued", "retries", "poisoned"):
            assert fabric[counter] == 0
        assert "ledger" not in fabric and "deduped" not in fabric
        assert fabric["request_ledger"]["capacity"] >= 1
        assert fabric["request_ledger"]["duplicates"] == 0


class _GatedPool(EnginePool):
    """An engine pool that holds every batch until the test opens it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = None  # created inside the running loop

    async def run_batch(self, images, **kwargs):
        await self.gate.wait()
        return await super().run_batch(images, **kwargs)


class TestBackpressureAndLifecycle:
    def test_submit_requires_running_server(self, rng):
        net = tiny_network(rng)
        server = InferenceServer(net)

        async def main():
            with pytest.raises(ServeError):
                await server.submit(tiny_images(rng, net, 1)[0])

        asyncio.run(main())

    def test_shape_validated_per_request(self, rng):
        net = tiny_network(rng)

        async def main():
            async with InferenceServer(net) as server:
                with pytest.raises(ShapeError):
                    await server.submit(np.zeros((2, 8, 8)))
                with pytest.raises(ShapeError):
                    await server.submit(np.zeros((1, 1, 8, 8)))

        asyncio.run(main())

    def test_bounded_queue_rejects_nowait_submits(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 24)

        async def main():
            server = InferenceServer(net, max_batch=1, queue_depth=2)
            server.pool = _GatedPool(net, server.config)
            async with server:
                server.pool.gate = asyncio.Event()
                tasks = [asyncio.create_task(
                    server.submit(image, wait=False))
                    for image in images]
                await asyncio.sleep(0.05)  # let the queue jam
                server.pool.gate.set()
                settled = await asyncio.gather(*tasks,
                                               return_exceptions=True)
                return settled, server.metrics.rejected

        settled, rejected = asyncio.run(main())
        bounced = [s for s in settled
                   if isinstance(s, BackpressureError)]
        completed = [s for s in settled
                     if not isinstance(s, BaseException)]
        assert bounced and completed
        assert rejected == len(bounced)
        assert len(bounced) + len(completed) == 24

    def test_graceful_stop_drains_pending_work(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 10)

        async def main():
            server = InferenceServer(net, max_batch=4, max_wait_ms=20.0)
            await server.start()
            pending = [asyncio.create_task(server.submit(image))
                       for image in images]
            await asyncio.sleep(0)  # let every submit reach the queue
            await server.stop()  # drain=True: everything must resolve
            return await asyncio.gather(*pending)

        results = asyncio.run(main())
        logits, _ = direct_run(net, images)
        np.testing.assert_array_equal([r.prediction for r in results],
                                      logits.argmax(axis=1))

    def test_hard_stop_fails_in_flight_requests_instead_of_hanging(
            self, rng):
        """stop(drain=False) must resolve futures of executing batches."""
        net = tiny_network(rng)

        async def main():
            server = InferenceServer(net, max_batch=1, max_wait_ms=0.0)
            server.pool = _GatedPool(net, server.config)
            await server.start()
            server.pool.gate = asyncio.Event()  # never opened: batch
            pending = asyncio.create_task(      # blocks in the pool
                server.submit(tiny_images(rng, net, 1)[0]))
            await asyncio.sleep(0.05)  # let it dispatch into the gate
            await asyncio.wait_for(server.stop(drain=False), timeout=5)
            with pytest.raises(ServeError):
                await asyncio.wait_for(pending, timeout=5)

        asyncio.run(main())

    def test_submit_many_nowait_settles_all_before_raising(self, rng):
        """Backpressure inside submit_many can't orphan sibling tasks."""
        net = tiny_network(rng)
        images = tiny_images(rng, net, 24)

        async def main():
            server = InferenceServer(net, max_batch=1, queue_depth=2)
            server.pool = _GatedPool(net, server.config)
            async with server:
                server.pool.gate = asyncio.Event()
                attempt = asyncio.create_task(
                    server.submit_many(images, wait=False))
                await asyncio.sleep(0.05)
                server.pool.gate.set()
                with pytest.raises(BackpressureError):
                    await attempt
                # Everything settled: accepted requests completed,
                # the rest were rejected — none left in flight.
                await server.stop()
                return (server.metrics.completed,
                        server.metrics.rejected)

        completed, rejected = asyncio.run(main())
        assert completed + rejected == 24
        assert rejected >= 1

    def test_double_start_and_post_stop_submit_rejected(self, rng):
        net = tiny_network(rng)

        async def main():
            server = InferenceServer(net)
            await server.start()
            with pytest.raises(ServeError):
                await server.start()
            await server.stop()
            with pytest.raises(ServeError):
                await server.submit(tiny_images(rng, net, 1)[0])

        asyncio.run(main())

    def test_pool_validation(self, rng):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        with pytest.raises(ConfigurationError):
            EnginePool(net, config, size=0)
        with pytest.raises(ConfigurationError):
            EnginePool(net, config, mode="fiber")


class TestMetrics:
    def test_percentiles_and_histogram(self):
        metrics = ServerMetrics()
        for latency in range(1, 101):  # 1..100 ms
            metrics.record(latency_ms=float(latency), queue_wait_ms=0.5,
                           service_ms=1.0, batch_size=4 if latency % 2
                           else 8)
        snapshot = metrics.snapshot(queue_depth=3)
        assert snapshot.completed == 100
        assert snapshot.queue_depth == 3
        assert snapshot.latency_ms["p50"] == pytest.approx(50.5)
        assert snapshot.latency_ms["p99"] == pytest.approx(99.01)
        assert snapshot.latency_ms["max"] == pytest.approx(100.0)
        assert snapshot.batch_size_histogram == {4: 50, 8: 50}
        assert snapshot.mean_batch_size == pytest.approx(6.0)

    def test_snapshot_is_json_serializable(self):
        metrics = ServerMetrics()
        metrics.record(1.0, 0.1, 0.5, 2)
        metrics.record_rejected()
        payload = json.loads(json.dumps(metrics.snapshot().to_dict()))
        assert payload["completed"] == 1
        assert payload["rejected"] == 1
        assert payload["batch_size_histogram"] == {"2": 1}

    def test_empty_snapshot_is_all_zeros(self):
        snapshot = ServerMetrics().snapshot()
        assert snapshot.completed == 0
        assert snapshot.latency_ms["p99"] == 0.0
        assert snapshot.mean_batch_size == 0.0


class TestLoadGenerator:
    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            LoadGenerator(lambda image: None, rate_rps=0.0)

    def test_failures_recorded_not_raised(self, rng):
        calls = {"n": 0}

        async def flaky(image):
            calls["n"] += 1
            if calls["n"] % 2:
                raise ServeError("boom")
            return "ok"

        report = asyncio.run(
            LoadGenerator(flaky, rate_rps=10_000.0).run(range(6)))
        assert report.completed == 3
        assert report.failed == 3
        assert [r for r in report.results if r is not None] == ["ok"] * 3
        assert sum(1 for e in report.errors if e is not None) == 3


class TestTcpTransport:
    def test_roundtrip_metrics_and_errors(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 5)
        logits, _ = direct_run(net, images)

        async def main():
            async with InferenceServer(net, max_batch=4) as server:
                tcp, port = await start_tcp_server(server)
                try:
                    async with TcpClient(port=port) as client:
                        assert await client.ping()
                        responses = await asyncio.gather(
                            *(client.infer(image) for image in images))
                        with pytest.raises(ServeError):
                            await client.infer(np.zeros((3, 3)))
                        metrics = await client.metrics()
                        return responses, metrics
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        responses, metrics = asyncio.run(main())
        np.testing.assert_array_equal(
            [r["prediction"] for r in responses], logits.argmax(axis=1))
        assert all(r["cycles"] > 0 for r in responses)
        assert metrics["completed"] == 5

    def test_malformed_requests_get_error_replies(self, rng):
        """Every bad request answers — a pipelining client must never
        hang."""
        net = tiny_network(rng)
        requests = [({"id": 1}, {}),                  # no image, no op
                    ({"id": 2, "image": [[[0.5]]]}, {}),  # not an array
                    ({"id": 3}, {"image": np.zeros((2, 2))}),  # shape
                    ({"id": 4, "op": "traces", "limit": "x"}, {})]

        async def main():
            async with InferenceServer(net) as server:
                tcp, port = await start_tcp_server(server)
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(b"".join(encode_frame(payload, arrays)
                                          for payload, arrays in requests))
                    await writer.drain()
                    replies = [await asyncio.wait_for(
                        read_reply(reader), timeout=5) for _ in requests]
                    writer.close()
                    await writer.wait_closed()
                    return replies
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        replies = asyncio.run(main())
        assert all("error" in reply for reply in replies)
        # Errors carry the request id.
        assert {reply["id"] for reply in replies} == {1, 2, 3, 4}

    def test_json_line_client_gets_codec_error_and_hangup(self, rng):
        """A v1 JSON-lines client is refused typed, not left hanging,
        and the server keeps serving other connections."""
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]

        async def main():
            async with InferenceServer(net) as server:
                tcp, port = await start_tcp_server(server)
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    writer.write(b'{"op": "ping"}\n')
                    await writer.drain()
                    # read() returns only at EOF: the server hung up.
                    data = await asyncio.wait_for(reader.read(), timeout=5)
                    writer.close()
                    await writer.wait_closed()
                    async with TcpClient(port=port) as client:
                        served = await client.infer(image)
                    return read_frame(io.BytesIO(data))[0], served
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        refusal, served = asyncio.run(main())
        assert refusal["id"] is None
        assert refusal["error"]["type"] == "CodecError"
        assert "magic" in refusal["error"]["message"]
        assert "prediction" in served

    def test_transport_requires_running_server(self, rng):
        net = tiny_network(rng)

        async def main():
            with pytest.raises(ServeError):
                await start_tcp_server(InferenceServer(net))

        asyncio.run(main())

    def test_client_request_after_connection_closed_fails_fast(
            self, rng):
        """A dead connection raises instead of hanging the caller."""
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]

        async def drop_connection(reader, writer):
            writer.close()

        async def main():
            tcp = await asyncio.start_server(drop_connection,
                                             "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            client = await TcpClient(port=port).connect()
            await asyncio.sleep(0.05)  # read loop sees EOF and exits
            with pytest.raises(ServeError):
                await asyncio.wait_for(client.infer(image), timeout=5)
            await client.close()
            tcp.close()
            await tcp.wait_closed()

        asyncio.run(main())


class TestTcpFrameNegotiation:
    """RBF1 frames on the serving transport."""

    def test_binary_errors_still_typed(self, rng):
        """Typed server errors survive the frame round-trip."""
        net = tiny_network(rng)

        async def main():
            async with InferenceServer(net) as server:
                tcp, port = await start_tcp_server(server)
                try:
                    async with TcpClient(port=port) as client:
                        with pytest.raises(ServeError):
                            await client.infer(np.zeros((2, 2)))
                        assert await client.ping()
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        asyncio.run(main())


class TestResultCache:
    """Content-addressed result cache on the serving admission path."""

    def _serve_seq(self, network, images, **server_kwargs):
        """Submit images one at a time so later duplicates can hit the
        cache filled by earlier completions."""

        async def main():
            async with InferenceServer(network, **server_kwargs) as server:
                results = [await server.submit(image) for image in images]
                return results, server.metrics.snapshot(), server.snapshot()

        return asyncio.run(main())

    def test_duplicate_submission_served_from_cache(self, rng):
        from repro.telemetry import get_registry

        get_registry().reset()
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]
        results, snapshot, full = self._serve_seq(
            net, [image, image, image], max_wait_ms=0.0)
        assert snapshot.cached == 2
        assert snapshot.completed == 3
        first, *hits = results
        for hit in hits:
            assert hit.prediction == first.prediction
            np.testing.assert_array_equal(hit.logits, first.logits)
            assert hit.trace == first.trace
            assert hit.cycles == first.cycles
            assert hit.latency_ms == 0.0  # replay never touches a lane
        cache = full.fabric["result_cache"]
        assert cache["hits"] == 2 and cache["misses"] == 1
        families = get_registry().to_dict()
        series = families["repro_result_cache_hits_total"]["series"]
        assert series and series[0]["value"] >= 2

    def test_distinct_images_never_cross_hit(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 6)
        results, snapshot, _ = self._serve_seq(net, list(images),
                                               max_wait_ms=0.0)
        assert snapshot.cached == 0
        expected = direct_run(net, images)[0].argmax(axis=1)
        np.testing.assert_array_equal(
            [r.prediction for r in results], expected)

    def test_cache_disabled_by_zero_capacity(self, rng):
        net = tiny_network(rng)
        image = tiny_images(rng, net, 1)[0]
        _, snapshot, full = self._serve_seq(
            net, [image, image], max_wait_ms=0.0, result_cache=0)
        assert snapshot.cached == 0
        assert snapshot.completed == 2
        assert full.fabric["result_cache"]["capacity"] == 0

    def test_lru_eviction_is_bounded(self, rng):
        net = tiny_network(rng)
        images = tiny_images(rng, net, 4)
        _, _, full = self._serve_seq(net, list(images), max_wait_ms=0.0,
                                     result_cache=2)
        cache = full.fabric["result_cache"]
        assert cache["entries"] == 2
        assert cache["evictions"] == 2
