"""Chaos drills: the fabric's promises *under* injected faults.

The contracts pinned here:

* a :class:`~repro.runtime.ChaosPolicy` is a deterministic, replayable
  fault schedule — same seed, same faults — with explicit one-shot
  schedules, a fault budget, and an event log for post-run assertions;
* killing a lane / severing a remote connection mid-run degrades the
  group, never the answer: results stay bit-identical to a serial run
  and the exactly-once ledger keeps duplicates out;
* the serve TCP client survives duplicated, delayed and dropped frames
  and server hang-ups — every request is answered exactly once (the
  idempotency key + result ledger pair), reconnects are counted;
* replicated serving answers are runtime-asserted bit-identical, and a
  blue/green alias flip under live load drops nothing.

No pytest-asyncio in the toolchain: tests drive coroutines with
``asyncio.run`` explicitly.
"""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import AcceleratorConfig
from repro.errors import ConfigurationError, RolloutError
from repro.models import performance_network
from repro.runtime import (
    ChaosPolicy,
    Deployment,
    DeploymentRegistry,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    create_workers,
    join_fabric,
    next_idempotency_key,
)
from repro.runtime.remote import _backoff_delay
from repro.runtime.work import ResultLedger
from repro.serve import InferenceServer, TcpClient, start_tcp_server


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def tiny_deployment(rng):
    net = tiny_network(rng)
    return Deployment(network=net,
                      config=AcceleratorConfig.for_network(net))


def make_items(rng, deployment, count=4, images_each=3):
    shape = deployment.network.input_shape
    return [WorkItem(item_id=i, deployment=0,
                     images=rng.random((images_each,) + shape))
            for i in range(count)]


def serial_baseline(deployment, items):
    with WorkerGroup([ThreadWorker()],
                     deployments=[deployment]) as group:
        return group.run([WorkItem(item_id=i.item_id, deployment=0,
                                   images=i.images)
                          for i in items])


def assert_bit_identical(baseline, results):
    for base, other in zip(baseline, results):
        np.testing.assert_array_equal(base.logits, other.logits)
        assert base.merged_trace() == other.merged_trace()


class TestChaosPolicy:
    def test_same_seed_replays_identical_schedule(self):
        fates = []
        for _ in range(2):
            policy = ChaosPolicy(seed=7, kill_prob=0.5)
            fates.append([policy.dispatch_fate("lane-a")
                          for _ in range(64)])
        assert fates[0] == fates[1]
        assert "kill" in fates[0] and None in fates[0]

    def test_different_seeds_differ(self):
        one = ChaosPolicy(seed=1, kill_prob=0.5)
        two = ChaosPolicy(seed=2, kill_prob=0.5)
        assert [one.dispatch_fate("x") for _ in range(64)] != \
            [two.dispatch_fate("x") for _ in range(64)]

    def test_explicit_kill_schedule_fires_once_at_draw(self):
        policy = ChaosPolicy(kill={"doomed": 3})
        fates = [policy.dispatch_fate("doomed") for _ in range(6)]
        assert fates == [None, None, "kill", None, None, None]
        assert policy.dispatch_fate("other") is None
        [event] = policy.events
        assert (event.site, event.lane, event.draw) == \
            ("dispatch", "doomed", 3)

    def test_max_faults_budget_caps_injection(self):
        policy = ChaosPolicy(seed=3, kill_prob=1.0, max_faults=2)
        fates = [policy.dispatch_fate("lane") for _ in range(10)]
        assert fates.count("kill") == 2
        assert len(policy.events) == 2

    def test_frame_fates_recorded_and_summarized(self):
        policy = ChaosPolicy(seed=5, dup_frame_prob=1.0, max_faults=3)
        assert [policy.frame_fate() for _ in range(4)] == \
            ["dup", "dup", "dup", None]
        summary = policy.summary()
        assert summary["faults"] == 3
        assert summary["by_site"] == {"client_frame:dup": 3}

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_prob=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(drop_frame_prob=-0.1)


class TestLedger:
    def test_record_get_and_duplicate_count(self):
        ledger = ResultLedger(capacity=2)
        ledger.record("a", 1)
        ledger.record("b", 2)
        assert ledger.peek("a") is True
        assert ledger.get("a") == 1        # counted as a duplicate hit
        assert ledger.duplicates == 1
        ledger.record("c", 3)               # evicts the LRU entry
        assert ledger.peek("b") is False
        assert ledger.peek("a") is True     # touched above, kept

    def test_keys_are_unique(self):
        keys = {next_idempotency_key() for _ in range(512)}
        assert len(keys) == 512


class TestGroupUnderChaos:
    def test_scheduled_process_kill_bit_identical(self, rng):
        """Chaos SIGKILLs a process lane mid-run; the real eviction and
        requeue machinery recovers every item, answers once each."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        baseline = serial_baseline(deployment, items)

        chaos = ChaosPolicy(kill={"doomed": 1})
        workers = [ProcessWorker(name="doomed"),
                   ThreadWorker(name="healthy")]
        # steal=False keeps the pin: with stealing on, the healthy
        # thread lane could drain all six items before the doomed
        # lane's first dispatch, and the kill would never land.  Crash
        # requeues still move work between lanes.
        with WorkerGroup(workers, deployments=[deployment],
                         chaos=chaos, heartbeat_s=30.0,
                         steal=False) as group:
            # Pin everything to the doomed lane: its first dispatch is
            # chaos-killed, so recovery has to move all of it.
            results = group.run(items, assignment=[0] * len(items))
            assert group.metrics.worker_crashes >= 1
            assert group.alive_workers() == ["healthy"]
        assert_bit_identical(baseline, results)
        assert any(e.action == "kill" for e in chaos.events)

    def test_scheduled_remote_sever_bit_identical(self, rng):
        """A severed TCP lane is evicted; its items finish elsewhere."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        baseline = serial_baseline(deployment, items)

        server = WorkerServer().start()
        try:
            # Draw 1 is the hello inside group.start(), so the sever
            # lands before any item is queued: no steal race to lose.
            chaos = ChaosPolicy(sever={"cut": 1})
            workers = [RemoteWorker("127.0.0.1", server.port,
                                    name="cut"),
                       ThreadWorker(name="local")]
            with WorkerGroup(workers, deployments=[deployment],
                             chaos=chaos, heartbeat_s=30.0) as group:
                results = group.run(items)
                assert group.metrics.worker_crashes >= 1
            assert_bit_identical(baseline, results)
            assert any(e.action == "sever" for e in chaos.events)
        finally:
            server.close()

    def test_corrupted_heartbeat_evicts_healthy_lane(self, rng):
        """A lying liveness probe costs a lane, never an answer."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        baseline = serial_baseline(deployment, items)

        chaos = ChaosPolicy(heartbeat_corrupt_prob=1.0, max_faults=1)
        with WorkerGroup(create_workers(["thread", "thread"]),
                         deployments=[deployment], chaos=chaos,
                         heartbeat_s=0.05) as group:
            deadline = time.time() + 10
            while (len(group.alive_workers()) > 1
                   and time.time() < deadline):
                time.sleep(0.02)
            assert len(group.alive_workers()) == 1
            results = group.run(items)
        assert_bit_identical(baseline, results)

    def test_duplicate_key_answered_from_ledger(self, rng):
        deployment = tiny_deployment(rng)
        [item] = make_items(rng, deployment, count=1)
        with WorkerGroup([ThreadWorker(name="only")],
                         deployments=[deployment]) as group:
            first = group.submit(item).result(timeout=60)
            dup = WorkItem(item_id=99, deployment=0,
                           images=rng.random((2,) + deployment.network
                                             .input_shape),
                           key=item.key)
            second = group.submit(dup).result(timeout=60)
            assert group.metrics.deduped == 1
            assert group.metrics.executed["only"] == 1
        np.testing.assert_array_equal(first.logits, second.logits)
        assert first.merged_trace() == second.merged_trace()

    def test_windowed_process_kill_requeues_whole_window(self, rng):
        """SIGKILL with W=2 chunks in flight: every windowed item —
        sent and unsent — requeues exactly-once and the merged answers
        stay bit-identical to a serial run."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8, images_each=2)
        baseline = serial_baseline(deployment, items)

        # Third dispatch draw kills: chunks 1 and 2 are pipelined
        # (window full) before the fault lands, so eviction must hand
        # a MULTI-chunk window to the requeue machinery.
        chaos = ChaosPolicy(kill={"doomed": 3})
        workers = [ProcessWorker(name="doomed"),
                   ThreadWorker(name="healthy")]
        with WorkerGroup(workers, deployments=[deployment],
                         chaos=chaos, heartbeat_s=30.0,
                         window=2, max_batch_items=2,
                         steal=False) as group:
            results = group.run(items, assignment=[0] * len(items))
            assert group.metrics.worker_crashes >= 1
            assert group.alive_workers() == ["healthy"]
            # The window genuinely pipelined before the kill: at least
            # one chunk was sent while another was still in flight.
            assert group.metrics.pipelined >= 2
            assert group.metrics.requeued >= 2
        assert len(results) == len(items)
        assert_bit_identical(baseline, results)
        assert any(e.action == "kill" for e in chaos.events)

    def test_windowed_remote_sever_requeues_whole_window(self, rng):
        """Severing the socket with W=3 in flight loses every
        outstanding chunk at once; all of them finish elsewhere with
        bit-identical merges and zero duplicate answers."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8, images_each=2)
        baseline = serial_baseline(deployment, items)

        server = WorkerServer().start()
        try:
            # The hello and the deployment push consume exchange draws
            # 1 and 2, so draw 5 is the THIRD chunk send — two chunks
            # already in flight when the wire goes away.
            chaos = ChaosPolicy(sever={"cut": 5})
            workers = [RemoteWorker("127.0.0.1", server.port,
                                    name="cut"),
                       ThreadWorker(name="local")]
            with WorkerGroup(workers, deployments=[deployment],
                             chaos=chaos, heartbeat_s=30.0,
                             window=3, max_batch_items=2,
                             steal=False) as group:
                results = group.run(items,
                                    assignment=[0] * len(items))
                assert group.metrics.worker_crashes >= 1
                assert group.metrics.pipelined >= 2
            assert len(results) == len(items)
            assert_bit_identical(baseline, results)
            assert any(e.action == "sever" for e in chaos.events)
        finally:
            server.close()

    def test_windowed_unsent_items_remain_stealable(self, rng):
        """Items queued behind a full window were never claimed by the
        windowed lane — an idle peer steals them like any backlog."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=12, images_each=2)
        baseline = serial_baseline(deployment, items)

        workers = [ProcessWorker(name="piped"),
                   ThreadWorker(name="idle")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=30.0, window=2,
                         max_batch_items=2) as group:
            results = group.run(items, assignment=[0] * len(items))
            assert group.metrics.stolen >= 1
        assert_bit_identical(baseline, results)

    def test_never_totals_the_group(self, rng):
        """Kill-everything chaos still answers: the last lane is spared
        (chaos degrades the group, never destroys it)."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        baseline = serial_baseline(deployment, items)
        chaos = ChaosPolicy(seed=11, kill_prob=1.0)
        with WorkerGroup(create_workers(["thread", "thread"]),
                         deployments=[deployment], chaos=chaos,
                         heartbeat_s=30.0) as group:
            results = group.run(items)
            assert len(group.alive_workers()) >= 1
        assert_bit_identical(baseline, results)


class TestJoinBackoff:
    def test_backoff_grows_and_caps_with_jitter(self):
        delays = [_backoff_delay(0.1, streak, 2.0)
                  for streak in (1, 2, 3, 10, 50)]
        for streak, delay in zip((1, 2, 3), delays):
            nominal = 0.1 * (2 ** (streak - 1))
            assert nominal * 0.5 <= delay < nominal
        assert delays[3] <= 2.0 and delays[4] <= 2.0

    def test_join_stats_count_failed_dials(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here
        stop = threading.Event()
        box = []
        thread = threading.Thread(
            target=lambda: box.append(join_fabric(
                "127.0.0.1", port, retry_s=0.01, stop_event=stop)))
        thread.start()
        time.sleep(0.3)
        stop.set()
        thread.join(timeout=10)
        [stats] = box
        assert stats.attempts >= 2
        assert stats.connects == 0
        assert stats.to_dict()["disconnects"] == 0


class TestServeUnderChaos:
    def test_frame_faults_exactly_once(self, rng):
        """Dup/drop/delay on the wire: every request answers once,
        predictions match a fault-free run, dups hit the ledger."""
        network = tiny_network(rng)
        images = rng.random((12,) + network.input_shape)

        async def main():
            async with InferenceServer(network, max_batch=4) as server:
                tcp, port = await start_tcp_server(server)
                clean = await server.submit_many(images)
                chaos = ChaosPolicy(seed=2, dup_frame_prob=0.4,
                                    drop_frame_prob=0.2,
                                    delay_frame_prob=0.2,
                                    delay_s=0.001)
                client = TcpClient("127.0.0.1", port, retries=6,
                                   chaos=chaos)
                async with client:
                    replies = []
                    for image in images:
                        replies.append(await client.infer(image))
                snapshot = server.snapshot()
                tcp.close()
                await tcp.wait_closed()
                return clean, replies, snapshot, chaos

        clean, replies, snapshot, chaos = asyncio.run(main())
        assert [r["prediction"] for r in replies] == \
            [r.prediction for r in clean]
        assert chaos.events, "seeded schedule injected nothing"
        dups = sum(1 for e in chaos.events if e.action == "dup")
        if dups:
            assert snapshot.deduped >= 1

    def test_server_hangups_recovered_by_reconnect(self, rng):
        network = tiny_network(rng)
        images = rng.random((10,) + network.input_shape)

        async def main():
            async with InferenceServer(network, max_batch=4) as server:
                direct = await server.submit_many(images)
                chaos = ChaosPolicy(seed=4, server_hangup_prob=0.35,
                                    max_faults=3)
                tcp, port = await start_tcp_server(server, chaos=chaos)
                client = TcpClient("127.0.0.1", port, retries=6,
                                   retry_base_s=0.01)
                async with client:
                    replies = []
                    for image in images:
                        replies.append(await client.infer(image))
                tcp.close()
                await tcp.wait_closed()
                return direct, replies, client.reconnects, chaos

        direct, replies, reconnects, chaos = asyncio.run(main())
        assert [r["prediction"] for r in replies] == \
            [r.prediction for r in direct]
        hangups = sum(1 for e in chaos.events if e.action == "hangup")
        assert hangups >= 1
        assert reconnects >= 1

    def test_duplicate_submit_while_inflight_shares_result(self, rng):
        network = tiny_network(rng)
        image = rng.random(network.input_shape)

        async def main():
            async with InferenceServer(network,
                                       max_wait_ms=20.0) as server:
                key = next_idempotency_key()
                first, second = await asyncio.gather(
                    server.submit(image, key=key),
                    server.submit(image, key=key))
                return first, second, server.snapshot()

        first, second, snapshot = asyncio.run(main())
        np.testing.assert_array_equal(first.logits, second.logits)
        assert snapshot.deduped >= 1
        assert snapshot.completed == 1

    def test_replicated_serving_bit_identical(self, rng):
        network = tiny_network(rng)
        images = rng.random((6,) + network.input_shape)

        async def main():
            async with InferenceServer(network, engines=2,
                                       replicas=2) as server:
                results = await server.submit_many(images)
                return results, server.snapshot()

        results, snapshot = asyncio.run(main())

        async def plain():
            async with InferenceServer(network) as server:
                return await server.submit_many(images)

        reference = asyncio.run(plain())
        assert [r.prediction for r in results] == \
            [r.prediction for r in reference]
        assert snapshot.replica_divergences == 0
        assert snapshot.completed == len(images)

    def test_replica_validation(self, rng):
        network = tiny_network(rng)
        with pytest.raises(Exception):
            InferenceServer(network, replicas=0)
        with pytest.raises(Exception):
            InferenceServer(network, replicas=2, quorum=3)


def _blue_green_registry(rng):
    """Two content-identical deployments (so any routing answers the
    same) plus a ``prod`` alias starting on blue."""
    network = tiny_network(rng)
    registry = DeploymentRegistry()
    registry.register("blue", network=network, backend="vectorized")
    registry.register("green", network=network, backend="vectorized")
    registry.alias("prod", "blue")
    return network, registry


class TestRollout:
    def test_alias_flip_is_atomic_and_one_hop(self, rng):
        _, registry = _blue_green_registry(rng)
        assert registry.alias_target("prod") == "blue"
        assert registry.resolve("prod").name == "blue"
        previous = registry.alias("prod", "green")
        assert previous == "blue"
        assert registry.resolve("prod").name == "green"
        with pytest.raises(RolloutError):
            registry.alias("blue", "green")   # name collision
        with pytest.raises(RolloutError):
            registry.alias("prod", "missing")

    def test_rollout_under_live_load_drops_nothing(self, rng):
        network, registry = _blue_green_registry(rng)
        images = rng.random((24,) + network.input_shape)

        async def main():
            async with InferenceServer(registry,
                                       max_wait_ms=1.0) as server:
                direct = await server.submit_many(images,
                                                  deployment="blue")
                tasks = []
                for i, image in enumerate(images):
                    tasks.append(asyncio.create_task(
                        server.submit(image, deployment="prod")))
                    if i == len(images) // 2:
                        outcome = await server.rollout("prod", "green")
                    await asyncio.sleep(0.002)
                results = await asyncio.gather(*tasks)
                return direct, results, outcome, server

        direct, results, outcome, server = asyncio.run(main())
        assert [r.prediction for r in results] == \
            [r.prediction for r in direct]
        assert outcome["alias"] == "prod"
        assert outcome["from"] == "blue" and outcome["to"] == "green"
        assert outcome["drained"] == "blue"   # the old lane, emptied
        assert server.registry.alias_target("prod") == "green"

    def test_rollout_refuses_non_serving_target(self, rng):
        network, registry = _blue_green_registry(rng)

        async def main():
            async with InferenceServer(registry) as server:
                with pytest.raises(RolloutError):
                    await server.rollout("prod", "missing")

        asyncio.run(main())

    def test_rollout_over_tcp(self, rng):
        network, registry = _blue_green_registry(rng)
        images = rng.random((4,) + network.input_shape)

        async def main():
            async with InferenceServer(registry) as server:
                tcp, port = await start_tcp_server(server)
                async with TcpClient("127.0.0.1", port) as client:
                    before = [await client.infer(image,
                                                 deployment="prod")
                              for image in images]
                    outcome = await client.rollout("prod", "green")
                    after = [await client.infer(image,
                                                deployment="prod")
                             for image in images]
                    with pytest.raises(RolloutError):
                        await client.rollout("prod", "missing")
                tcp.close()
                await tcp.wait_closed()
                return before, outcome, after

        before, outcome, after = asyncio.run(main())
        assert outcome["from"] == "blue" and outcome["to"] == "green"
        assert [r["prediction"] for r in before] == \
            [r["prediction"] for r in after]
