"""Multi-model serving and elastic fabric: the deployment registry PR.

The contracts pinned here:

* a :class:`DeploymentRegistry` names deployments, dedupes content-equal
  registrations onto one table slot, and raises typed
  :class:`DeploymentError` for unknown names/indices — locally, on every
  executor, and over the TCP wire;
* two deployments served concurrently from **one** ``WorkerGroup``-backed
  pool answer per-deployment predictions equal to a direct
  ``Accelerator.run_logits`` run, with per-deployment batching (batches
  never mix models), metrics and admission limits;
* the lane set is elastic: lanes join (``add_lane`` /
  ``repro worker --join`` via :class:`GroupListener`) and leave
  (``remove_lane``) a *running* group, an evicted lane is re-admitted
  after a probation probe, and any lane churn mid-run merges
  bit-identically to the serial single-process result;
* the trusted-fabric TCP protocol optionally requires a shared-secret
  token: unauthenticated payloads are rejected before any pickled blob
  is touched, and garbage/version-skewed frames answer structured errors
  without killing the connection;
* the load generator's arrival schedule is a pure function of
  ``(rate, arrival, seed)`` — identical offered-load traces across runs.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Accelerator, AcceleratorConfig
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    DeploymentError,
    FabricAuthError,
    WorkerCrashError,
)
from repro.harness.sweep import SweepDriver, SweepTask
from repro.models import performance_network
from repro.runtime import (
    Deployment,
    DeploymentRegistry,
    GroupListener,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    attach_token,
    check_token,
    create_workers,
    encode_frame,
    join_fabric,
    read_frame,
)
from repro.serve import InferenceServer, LoadGenerator, TcpClient, \
    start_tcp_server


pytestmark = pytest.mark.usefixtures("fabric_leak_check")


def alpha_network(rng, num_steps=3):
    """A LeNet-flavoured tiny model: (1, 8, 8) in, 5 classes out."""
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def beta_network(rng, num_steps=4):
    """A Fang-flavoured tiny model: different shape, classes and T."""
    return performance_network(
        [("conv", 6, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 6)],
        input_shape=(1, 12, 12), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def deployment_for(network):
    return Deployment(network=network,
                      config=AcceleratorConfig.for_network(network))


def two_model_registry(rng):
    registry = DeploymentRegistry()
    registry.register("alpha", deployment_for(alpha_network(rng)))
    registry.register("beta", deployment_for(beta_network(rng)))
    return registry


def direct_predictions(network, images):
    """Ground truth the acceptance bar names: Accelerator.run_logits."""
    accelerator = Accelerator(AcceleratorConfig.for_network(network),
                              backend="vectorized")
    accelerator.deploy(SimpleNamespace(network=network))
    logits, _ = accelerator.run_logits(images)
    return logits.argmax(axis=1)


def make_task(rng, network, key, num_images=24):
    return SweepTask(key=key, network=network,
                     config=AcceleratorConfig.for_network(network),
                     images=rng.random((num_images,)
                                       + network.input_shape),
                     labels=rng.integers(
                         0, 5, size=num_images))


class TestDeploymentRegistry:
    def test_register_resolve_and_describe(self, rng):
        registry = two_model_registry(rng)
        assert registry.names() == ["alpha", "beta"]
        assert registry.resolve().name == "alpha"        # default = first
        assert registry.resolve("beta").index == 1
        assert registry.resolve(1).name == "beta"
        rows = registry.describe()
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert all(row["fingerprint"] and row["backend"] == "vectorized"
                   for row in rows)
        assert rows[0]["input_shape"] == [1, 8, 8]
        assert rows[1]["input_shape"] == [1, 12, 12]

    def test_unknown_name_and_index_are_typed_errors(self, rng):
        registry = two_model_registry(rng)
        with pytest.raises(DeploymentError):
            registry.resolve("gamma")
        with pytest.raises(DeploymentError):
            registry.resolve(7)
        with pytest.raises(DeploymentError):
            DeploymentRegistry().resolve()

    def test_content_equal_names_alias_one_table_slot(self, rng):
        network = alpha_network(rng)
        registry = DeploymentRegistry()
        first = registry.register("one", deployment_for(network))
        second = registry.register("two", deployment_for(network))
        assert first.index == second.index
        assert len(registry) == 2                  # two names...
        assert len(registry.table()) == 1          # ...one deployment
        # Idempotent re-registration returns the existing entry.
        assert registry.register("one", deployment_for(network)) is first

    def test_same_name_different_content_rejected(self, rng):
        registry = DeploymentRegistry()
        registry.register("model", deployment_for(alpha_network(rng)))
        with pytest.raises(ConfigurationError):
            registry.register("model", deployment_for(beta_network(rng)))

    def test_register_from_parts_with_admission_limit(self, rng):
        network = alpha_network(rng)
        registry = DeploymentRegistry()
        entry = registry.register("limited", network=network, max_queue=3)
        assert entry.max_queue == 3
        assert entry.deployment.config == \
            AcceleratorConfig.for_network(network)


class TestMultiModelGroup:
    def test_two_deployments_one_group_bit_identical(self, rng):
        """Both models' items flow through one lane set; each result
        equals that model's own direct run."""
        registry = two_model_registry(rng)
        table = registry.table()
        images = {index: rng.random((3,) + dep.network.input_shape)
                  for index, dep in enumerate(table)}
        items = [WorkItem(item_id=i, deployment=i % 2,
                          images=images[i % 2]) for i in range(6)]
        with WorkerGroup(create_workers(["thread", "process"]),
                         deployments=registry) as group:
            results = group.run(items)
        for item, result in zip(items, results):
            expected = direct_predictions(
                table[item.deployment].network, item.images)
            np.testing.assert_array_equal(result.predictions, expected)

    def test_misrouted_item_raises_typed_error_locally(self, rng):
        deployment = deployment_for(alpha_network(rng))
        images = rng.random((2,) + deployment.network.input_shape)
        with WorkerGroup([ThreadWorker()],
                         deployments=[deployment]) as group:
            future = group.submit(WorkItem(item_id=0, deployment=5,
                                           images=images))
            with pytest.raises(DeploymentError):
                future.result(timeout=30)
            # The lane survives the misroute.
            ok = group.submit(WorkItem(item_id=1, deployment=0,
                                       images=images))
            assert ok.result(timeout=30).logits.shape[0] == 2
            assert group.metrics.worker_crashes == 0

    def test_misrouted_item_raises_typed_error_over_tcp(self, rng):
        deployment = deployment_for(alpha_network(rng))
        images = rng.random((2,) + deployment.network.input_shape)
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                worker.deploy([deployment])
                with pytest.raises(DeploymentError):
                    worker.execute(WorkItem(item_id=0, deployment=3,
                                            images=images))
                # Typed task error, healthy lane: valid work still runs.
                result = worker.execute(WorkItem(item_id=1, deployment=0,
                                                 images=images))
                assert result.logits.shape[0] == 2
            finally:
                worker.close()


def serve_two_models(rng, registry, count_a=10, count_b=6,
                     **server_kwargs):
    """Serve both deployments concurrently from one pool."""
    net_a = registry.resolve("alpha").deployment.network
    net_b = registry.resolve("beta").deployment.network
    images_a = rng.random((count_a,) + net_a.input_shape)
    images_b = rng.random((count_b,) + net_b.input_shape)
    server_kwargs.setdefault("max_batch", 4)
    server_kwargs.setdefault("max_wait_ms", 10.0)
    server = InferenceServer(registry, **server_kwargs)

    async def main():
        async with server:
            results_a, results_b = await asyncio.gather(
                server.submit_many(images_a, deployment="alpha"),
                server.submit_many(images_b, deployment="beta"))
            return (results_a, results_b, server.snapshot(),
                    server.snapshot("alpha"), server.snapshot("beta"))

    results_a, results_b, snapshot, snap_a, snap_b = asyncio.run(main())
    return (images_a, images_b, results_a, results_b,
            snapshot, snap_a, snap_b)


class TestMultiModelServing:
    def test_concurrent_deployments_match_accelerator_run_logits(
            self, rng):
        """The PR's acceptance bar: two models on one WorkerGroup-backed
        pool, each runtime-equal to its direct Accelerator run."""
        registry = two_model_registry(rng)
        (images_a, images_b, results_a, results_b,
         snapshot, snap_a, snap_b) = serve_two_models(
            rng, registry, engines=2)

        net_a = registry.resolve("alpha").deployment.network
        net_b = registry.resolve("beta").deployment.network
        np.testing.assert_array_equal(
            [r.prediction for r in results_a],
            direct_predictions(net_a, images_a))
        np.testing.assert_array_equal(
            [r.prediction for r in results_b],
            direct_predictions(net_b, images_b))

        # Batches never mix models, and every result is labelled.
        assert all(r.deployment == "alpha" for r in results_a)
        assert all(r.deployment == "beta" for r in results_b)

        # Per-deployment metrics split the aggregate exactly.
        assert snap_a.completed == len(results_a)
        assert snap_b.completed == len(results_b)
        assert snapshot.completed == len(results_a) + len(results_b)
        assert set(snapshot.per_deployment) == {"alpha", "beta"}
        assert (snapshot.per_deployment["alpha"]["completed"]
                == len(results_a))

    def test_per_request_trace_slices_per_model(self, rng):
        """Hardware accounting stays per-deployment under coalescing."""
        registry = two_model_registry(rng)
        _, _, results_a, results_b, *_ = serve_two_models(rng, registry)
        # Cycle costs differ between the two models (different shapes);
        # every request of one deployment reports its own model's cost.
        cycles_a = {r.cycles for r in results_a}
        cycles_b = {r.cycles for r in results_b}
        assert len(cycles_a) == 1 and len(cycles_b) == 1
        assert cycles_a != cycles_b

    def test_registration_after_start_is_typed_error(self, rng):
        """The registry is public and growable; a name it resolves but
        the running server has no lane for must answer typed, not leak
        a KeyError past the TCP handler."""
        registry = DeploymentRegistry()
        registry.register("alpha", deployment_for(alpha_network(rng)))
        server = InferenceServer(registry)
        late_net = beta_network(rng)

        async def main():
            async with server:
                registry.register("late", deployment_for(late_net))
                with pytest.raises(DeploymentError):
                    await server.submit(np.zeros(late_net.input_shape),
                                        deployment="late")

        asyncio.run(main())

    def test_elastic_serving_capacity_grows_and_shrinks(self, rng):
        """add_engine_lane admits a lane AND grows the dispatch budget;
        remove_engine_lane drains both back down."""
        registry = two_model_registry(rng)
        net_a = registry.resolve("alpha").deployment.network
        images = rng.random((8,) + net_a.input_shape)
        server = InferenceServer(registry, max_batch=2, engines=1)

        async def main():
            async with server:
                name = await server.add_engine_lane("thread")
                assert server.pool.size == 2
                assert server.pool.group.metrics.lanes_added == 1
                results = await server.submit_many(images,
                                                   deployment="alpha")
                await server.remove_engine_lane(name)
                assert server.pool.size == 1
                more = await server.submit_many(images[:4],
                                                deployment="alpha")
                return results, more

        results, more = asyncio.run(main())
        expected = direct_predictions(net_a, images)
        np.testing.assert_array_equal([r.prediction for r in results],
                                      expected)
        np.testing.assert_array_equal([r.prediction for r in more],
                                      expected[:4])

    def test_expired_lane_releases_its_dispatch_slot(self, rng):
        """A deployment whose only waiting request expired must hand
        its dispatch slot back, not park on an empty queue holding it —
        that would starve every other deployment of the shared pool."""
        from repro.errors import RequestTimeoutError
        from repro.serve import EnginePool

        class GatedPool(EnginePool):
            async def run_batch(self, images, **kwargs):
                await self.gate.wait()
                return await super().run_batch(images, **kwargs)

        registry = two_model_registry(rng)
        net_a = registry.resolve("alpha").deployment.network
        net_b = registry.resolve("beta").deployment.network
        image_a = rng.random(net_a.input_shape)
        image_b = rng.random(net_b.input_shape)
        server = InferenceServer(registry, max_batch=1, max_wait_ms=0.0,
                                 engines=1)
        server.pool = GatedPool(registry=registry, size=1)

        async def main():
            async with server:
                server.pool.gate = asyncio.Event()
                # A beta batch occupies the pool's only slot at the gate.
                stuck = asyncio.create_task(
                    server.submit(image_b, deployment="beta"))
                await asyncio.sleep(0.05)
                # An alpha request expires while waiting for that slot.
                doomed = asyncio.create_task(
                    server.submit(image_a, deployment="alpha",
                                  timeout_ms=30))
                await asyncio.sleep(0.1)   # let the deadline pass
                server.pool.gate.set()
                with pytest.raises(RequestTimeoutError):
                    await doomed
                await stuck
                # Beta traffic must still be served: the alpha loop,
                # finding only expired work, released the slot.
                result = await asyncio.wait_for(
                    server.submit(image_b, deployment="beta"), timeout=10)
                assert result.deployment == "beta"

        asyncio.run(main())

    def test_unknown_deployment_is_typed_error(self, rng):
        registry = two_model_registry(rng)
        net_a = registry.resolve("alpha").deployment.network
        server = InferenceServer(registry)

        async def main():
            async with server:
                with pytest.raises(DeploymentError):
                    await server.submit(
                        np.zeros(net_a.input_shape), deployment="gamma")

        asyncio.run(main())

    def test_shape_validated_against_target_deployment(self, rng):
        """An alpha-shaped image must be rejected by beta, not run."""
        from repro.errors import ShapeError

        registry = two_model_registry(rng)
        net_a = registry.resolve("alpha").deployment.network
        server = InferenceServer(registry)

        async def main():
            async with server:
                with pytest.raises(ShapeError):
                    await server.submit(np.zeros(net_a.input_shape),
                                        deployment="beta")

        asyncio.run(main())

    def test_per_deployment_admission_limit(self, rng):
        """A registry entry's max_queue caps that model's queue only."""
        network = alpha_network(rng)
        registry = DeploymentRegistry()
        registry.register("tight", deployment_for(network), max_queue=2)
        registry.register("roomy", deployment_for(beta_network(rng)))
        server = InferenceServer(registry, max_batch=1, queue_depth=64)
        images = rng.random((12,) + network.input_shape)

        async def main():
            async with server:
                tasks = [asyncio.create_task(
                    server.submit(image, wait=False, deployment="tight"))
                    for image in images]
                settled = await asyncio.gather(*tasks,
                                               return_exceptions=True)
                return settled, server.snapshot("tight").rejected

        settled, rejected = asyncio.run(main())
        bounced = [s for s in settled
                   if isinstance(s, BackpressureError)]
        assert bounced and rejected == len(bounced)

    def test_multimodel_over_tcp(self, rng):
        """deployment field, registry op and typed errors on the wire."""
        registry = two_model_registry(rng)
        net_b = registry.resolve("beta").deployment.network
        image_b = rng.random(net_b.input_shape)
        server = InferenceServer(registry, max_batch=4)

        async def main():
            async with server:
                tcp, port = await start_tcp_server(server)
                try:
                    async with TcpClient(port=port) as client:
                        rows = await client.deployments()
                        reply = await client.infer(image_b,
                                                   deployment="beta")
                        with pytest.raises(DeploymentError):
                            await client.infer(image_b,
                                               deployment="gamma")
                        metrics = await client.metrics(deployment="beta")
                        aggregate = await client.metrics()
                        return rows, reply, metrics, aggregate
                finally:
                    tcp.close()
                    await tcp.wait_closed()

        rows, reply, metrics, aggregate = asyncio.run(main())
        assert [row["name"] for row in rows] == ["alpha", "beta"]
        assert reply["deployment"] == "beta"
        assert reply["prediction"] == int(
            direct_predictions(net_b, image_b[None])[0])
        assert metrics["completed"] == 1
        assert aggregate["per_deployment"]["beta"]["completed"] == 1


class TestElasticFabric:
    def _items(self, rng, deployment, count):
        shape = deployment.network.input_shape
        return [WorkItem(item_id=i, deployment=0,
                         images=rng.random((3,) + shape))
                for i in range(count)]

    def test_add_lane_mid_run_bit_identical(self, rng):
        deployment = deployment_for(alpha_network(rng))
        items = self._items(rng, deployment, 8)
        with WorkerGroup([ThreadWorker()],
                         deployments=[deployment]) as baseline_group:
            baseline = baseline_group.run(items)
        with WorkerGroup([ThreadWorker(name="first")],
                         deployments=[deployment]) as group:
            futures = [group.submit(item) for item in items[:4]]
            name = group.add_lane("thread")
            futures += [group.submit(item) for item in items[4:]]
            results = [f.result(timeout=60) for f in futures]
            assert group.metrics.lanes_added == 1
            assert name in group.alive_workers()
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_remove_lane_drains_and_last_lane_is_protected(self, rng):
        deployment = deployment_for(alpha_network(rng))
        workers = [ThreadWorker(name="stays"), ThreadWorker(name="goes")]
        with WorkerGroup(workers, deployments=[deployment]) as group:
            group.run(self._items(rng, deployment, 2))
            group.remove_lane("goes")
            assert group.alive_workers() == ["stays"]
            assert group.metrics.lanes_removed == 1
            results = group.run(self._items(rng, deployment, 4))
            assert all(r.worker == "stays" for r in results)
            with pytest.raises(ConfigurationError):
                group.remove_lane("stays")
            with pytest.raises(ConfigurationError):
                group.remove_lane("never-existed")

    def test_evicted_lane_readmitted_after_probation(self, rng):
        """A killed process lane comes back by itself: evict -> probe ->
        readmit -> executes again."""
        deployment = deployment_for(alpha_network(rng))
        workers = [ProcessWorker(name="phoenix"),
                   ThreadWorker(name="anchor")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=0.1, probation_s=0.2) as group:
            group.run(self._items(rng, deployment, 2))
            os.kill(workers[0].pid, signal.SIGKILL)
            deadline = time.time() + 60
            while (group.metrics.readmitted < 1
                   and time.time() < deadline):
                time.sleep(0.05)
            assert group.metrics.readmitted >= 1
            assert group.metrics.worker_crashes >= 1
            assert "phoenix" in group.alive_workers()
            results = group.run(self._items(rng, deployment, 4))
            assert len(results) == 4

    def test_removed_lane_is_never_readmitted(self, rng):
        """remove_lane beats probation: an evicted-then-removed lane
        stays out even with fast probes running."""
        deployment = deployment_for(alpha_network(rng))
        workers = [ProcessWorker(name="gone"),
                   ThreadWorker(name="anchor")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=0.05, probation_s=10.0) as group:
            os.kill(workers[0].pid, signal.SIGKILL)
            deadline = time.time() + 60
            while ("gone" in group.alive_workers()
                   and time.time() < deadline):
                time.sleep(0.05)
            group.remove_lane("gone")       # decommission while dead
            # remove_lane popped the probation timer, so without the
            # removed-filter the monitor would probe (and readmit) the
            # lane on its very next 0.05 s tick.  It must not.
            time.sleep(0.5)
            assert group.alive_workers() == ["anchor"]
            assert group.metrics.readmitted == 0

    def test_readmit_disabled_keeps_lane_dead(self, rng):
        deployment = deployment_for(alpha_network(rng))
        workers = [ProcessWorker(name="doomed"),
                   ThreadWorker(name="anchor")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=0.1, readmit=False) as group:
            os.kill(workers[0].pid, signal.SIGKILL)
            deadline = time.time() + 60
            while ("doomed" in group.alive_workers()
                   and time.time() < deadline):
                time.sleep(0.05)
            time.sleep(0.5)  # several probation periods' worth
            assert group.alive_workers() == ["anchor"]
            assert group.metrics.readmitted == 0

    def test_join_fabric_enters_live_group(self, rng):
        """repro worker --join: an outbound connection becomes a lane."""
        deployment = deployment_for(alpha_network(rng))
        items = self._items(rng, deployment, 6)
        with WorkerGroup([ThreadWorker()],
                         deployments=[deployment]) as baseline_group:
            baseline = baseline_group.run(items)
        group = WorkerGroup([ThreadWorker(name="local")],
                            deployments=[deployment]).start()
        listener = GroupListener(group, "127.0.0.1", 0).start()
        joiner = threading.Thread(
            target=join_fabric,
            args=("127.0.0.1", listener.port),
            kwargs={"name": "visitor"}, daemon=True)
        joiner.start()
        try:
            deadline = time.time() + 30
            while (group.metrics.lanes_added < 1
                   and time.time() < deadline):
                time.sleep(0.02)
            assert group.metrics.lanes_added == 1
            assert "visitor" in group.alive_workers()
            results = group.run(items)
            for base, other in zip(baseline, results):
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        finally:
            listener.close()
            group.stop()
        joiner.join(timeout=10)
        assert not joiner.is_alive()

    def test_heterogeneous_sweep_with_mid_run_join_is_bit_exact(
            self, rng):
        """The PR's acceptance bar: a two-model sweep on a shared
        external group, with a lane joining mid-run, merges identically
        to the serial single-process result."""
        task_a = make_task(rng, alpha_network(rng), "alpha_cell", 30)
        task_b = make_task(rng, beta_network(rng), "beta_cell", 30)
        serial = SweepDriver(workers=1, shard_size=30).run(
            [task_a, task_b])

        group = WorkerGroup([ThreadWorker(name="resident")]).start()
        listener = GroupListener(group, "127.0.0.1", 0).start()
        launched = []

        def progress(tick):
            # After the first completed unit, bring a joiner in and
            # block this dispatcher until it has actually joined — the
            # join provably lands mid-run, and the joined lane steals
            # the remaining shards meanwhile.
            if not launched:
                launched.append(threading.Thread(
                    target=join_fabric,
                    args=("127.0.0.1", listener.port),
                    kwargs={"name": "midrun"}, daemon=True))
                launched[0].start()
                deadline = time.time() + 30
                while (group.metrics.lanes_added < 1
                       and time.time() < deadline):
                    time.sleep(0.01)

        driver = SweepDriver(shard_size=3, progress=progress)
        try:
            outcomes = driver.run([task_a, task_b], group=group)
        finally:
            listener.close()
            group.stop()
        launched[0].join(timeout=10)

        assert group.metrics.lanes_added == 1
        assert driver.last_summary.lanes_joined == 1
        assert driver.last_summary.num_deployments == 2
        for key in ("alpha_cell", "beta_cell"):
            np.testing.assert_array_equal(outcomes[key].predictions,
                                          serial[key].predictions)
            assert outcomes[key].trace == serial[key].trace
            assert outcomes[key].correct == serial[key].correct

    def test_sweep_accept_opens_listener_for_joiners(self, rng):
        """The driver-owned path `repro sweep --accept` rides on."""
        task = make_task(rng, alpha_network(rng), "cell", 24)
        serial = SweepDriver(workers=1, shard_size=24).run(
            [task])[task.key]
        joiners = []

        driver = SweepDriver(workers=["thread"], shard_size=2,
                             accept=("127.0.0.1", 0))

        def progress(tick):
            if not joiners:
                joiners.append(threading.Thread(
                    target=join_fabric,
                    args=("127.0.0.1", driver.listener.port),
                    daemon=True))
                joiners[0].start()

        driver.progress = progress
        outcome = driver.run([task])[task.key]
        np.testing.assert_array_equal(outcome.predictions,
                                      serial.predictions)
        assert outcome.trace == serial.trace
        assert driver.listener is None  # closed after the run
        joiners[0].join(timeout=10)

    def test_sweep_dedupes_content_equal_deployments(self, rng):
        network = alpha_network(rng)
        task_a = make_task(rng, network, "first_half", 10)
        task_b = make_task(rng, network, "second_half", 10)
        driver = SweepDriver(workers=1, shard_size=5)
        driver.run([task_a, task_b])
        assert driver.last_summary.num_deployments == 1

    def test_external_group_must_be_started(self, rng):
        task = make_task(rng, alpha_network(rng), "cell", 6)
        group = WorkerGroup([ThreadWorker()])
        with pytest.raises(ConfigurationError):
            SweepDriver(shard_size=3).run([task], group=group)


class TestSweepStreaming:
    def test_one_record_per_shard_with_running_top1(self, rng):
        task = make_task(rng, alpha_network(rng), "cell", 22)
        records = []
        driver = SweepDriver(workers=1, shard_size=5,
                             stream=records.append)
        outcome = driver.run([task])[task.key]
        assert len(records) == outcome.num_shards == 5  # ceil(22 / 5)
        assert sum(r["correct"] for r in records) == outcome.correct
        assert sum(r["images"] for r in records) == 22
        assert records[-1]["top1_so_far"] == outcome.accuracy
        assert records[-1]["done_units"] == records[-1]["total_units"]
        for record in records:
            for field in ("task_key", "deployment", "backend", "start",
                          "stop", "cycles", "worker", "wall_s"):
                assert field in record
            json.dumps(record)  # JSON-ready by contract

    def test_stream_covers_every_task_of_a_multi_model_sweep(self, rng):
        task_a = make_task(rng, alpha_network(rng), "a", 8)
        task_b = make_task(rng, beta_network(rng), "b", 8)
        records = []
        SweepDriver(workers=1, shard_size=4,
                    stream=records.append).run([task_a, task_b])
        assert {r["task_key"] for r in records} == {"a", "b"}
        fingerprints = {r["task_key"]: r["deployment"] for r in records}
        assert fingerprints["a"] != fingerprints["b"]


class TestFabricToken:
    def test_codec_token_checks(self):
        payload = {"op": "ping"}
        assert check_token(payload, None)
        signed = attach_token(payload, "s3cret")
        assert signed is not payload and check_token(signed, "s3cret")
        assert not check_token(payload, "s3cret")          # missing
        assert not check_token(attach_token(payload, "wrong"), "s3cret")
        assert not check_token(dict(payload, auth=42), "s3cret")

    def test_tokenless_lane_rejected_by_token_server(self, rng):
        deployment = deployment_for(alpha_network(rng))
        with WorkerServer(token="s3cret") as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                with pytest.raises(WorkerCrashError):
                    worker.deploy([deployment])
            finally:
                worker.close()
            # The right token sails through, bit-identically.
            good = RemoteWorker("127.0.0.1", server.port, token="s3cret")
            good.start()
            try:
                good.deploy([deployment])
                images = rng.random((2,) + deployment.network.input_shape)
                result = good.execute(WorkItem(item_id=0, deployment=0,
                                               images=images))
                np.testing.assert_array_equal(
                    result.predictions,
                    direct_predictions(deployment.network, images))
            finally:
                good.close()

    def test_group_degrades_on_auth_failure(self, rng):
        """A bad-token lane dies at start; the group keeps serving."""
        deployment = deployment_for(alpha_network(rng))
        with WorkerServer(token="s3cret") as server:
            workers = [
                RemoteWorker("127.0.0.1", server.port, name="badtoken",
                             token="nope"),
                ThreadWorker(name="local"),
            ]
            with WorkerGroup(workers, deployments=[deployment],
                             heartbeat_s=30.0) as group:
                results = group.run(self._items(rng, deployment))
                assert group.metrics.worker_crashes == 1
                assert all(r.worker == "local" for r in results)

    def _items(self, rng, deployment, count=3):
        shape = deployment.network.input_shape
        return [WorkItem(item_id=i, deployment=0,
                         images=rng.random((2,) + shape))
                for i in range(count)]

    def test_join_with_wrong_token_is_refused(self, rng):
        group = WorkerGroup([ThreadWorker()],
                            deployments=[deployment_for(
                                alpha_network(rng))]).start()
        listener = GroupListener(group, "127.0.0.1", 0,
                                 token="s3cret").start()
        try:
            with pytest.raises(FabricAuthError):
                join_fabric("127.0.0.1", listener.port, token="wrong")
            with pytest.raises(FabricAuthError):
                join_fabric("127.0.0.1", listener.port)  # no token
            assert group.metrics.lanes_added == 0
            # The right token joins.
            joiner = threading.Thread(
                target=join_fabric,
                args=("127.0.0.1", listener.port),
                kwargs={"token": "s3cret", "name": "trusted"},
                daemon=True)
            joiner.start()
            deadline = time.time() + 30
            while (group.metrics.lanes_added < 1
                   and time.time() < deadline):
                time.sleep(0.02)
            assert "trusted" in group.alive_workers()
        finally:
            listener.close()
            group.stop()


class TestCodecEdgeCases:
    def test_garbage_and_skewed_frames_answer_structured_errors(
            self, rng):
        """A live WorkerServer answers skewed frames on the same
        connection and hangs up only on a frame it cannot parse."""
        deployment = deployment_for(alpha_network(rng))
        with WorkerServer() as server:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10)
            try:
                reader = sock.makefile("rb")
                # Version-skewed frame (deploy without its blob array).
                sock.sendall(encode_frame({"op": "deploy"}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is False
                assert reply["error"]["type"] and reply["error"]["message"]
                # Blob shipped in the header instead of the body.
                sock.sendall(encode_frame({"op": "deploy", "blob": "b64"}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is False
                # Unknown op.
                sock.sendall(encode_frame({"op": "teleport"}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is False
                assert "teleport" in reply["error"]["message"]
                # The connection still serves real work afterwards.
                sock.sendall(encode_frame({"op": "ping"}))
                assert read_frame(reader)[0]["ok"] is True
                # Garbage bytes: one structured error, then a hangup.
                sock.sendall(b"this is not a frame at all")
                reply, _ = read_frame(reader)
                assert reply["error"]["type"] == "CodecError"
                assert read_frame(reader) is None
            finally:
                sock.close()
        # And a real lane on the same protocol still round-trips.
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                worker.deploy([deployment])
                assert worker.ping()
            finally:
                worker.close()

    def test_structured_error_payload_roundtrip(self, rng):
        """Error replies carry type+message and resurrect typed."""
        with WorkerServer() as server:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10)
            try:
                reader = sock.makefile("rb")
                sock.sendall(encode_frame(
                    {"op": "execute_many",
                     "items": [{"item_id": 1, "deployment": 0}]},
                    {"images:0": np.zeros((0,))}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is True
                [entry] = reply["results"]
                assert entry["ok"] is False
                assert entry["error"]["type"] == "DeploymentError"
                assert "deploy" in entry["error"]["message"]
            finally:
                sock.close()


class TestLoadGeneratorDeterminism:
    async def _noop_submit(self, image, deployment=None):
        return deployment

    def test_poisson_schedule_reproducible_by_seed(self):
        make = lambda seed: LoadGenerator(  # noqa: E731
            self._noop_submit, 200.0, arrival="poisson", seed=seed)
        first = make(7).arrival_offsets(64)
        again = make(7).arrival_offsets(64)
        other = make(8).arrival_offsets(64)
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)
        assert first[0] == 0.0 and np.all(np.diff(first) >= 0)

    def test_even_schedule_is_fixed_spacing(self):
        generator = LoadGenerator(self._noop_submit, 100.0)
        np.testing.assert_allclose(generator.arrival_offsets(5),
                                   np.arange(5) * 0.01)

    def test_bad_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadGenerator(self._noop_submit, 100.0, arrival="bursty")

    def test_deployment_forwarded_and_report_records_trace_params(self):
        generator = LoadGenerator(self._noop_submit, 5000.0,
                                  arrival="poisson", seed=3,
                                  deployment="beta")
        report = asyncio.run(generator.run(np.zeros((4, 1, 2, 2))))
        assert report.results == ["beta"] * 4
        assert report.to_dict()["seed"] == 3
        assert report.to_dict()["arrival"] == "poisson"
        assert report.to_dict()["deployment"] == "beta"

    def test_seeded_poisson_load_serves_end_to_end(self, rng):
        network = alpha_network(rng)
        images = rng.random((8,) + network.input_shape)
        server = InferenceServer(network, max_batch=4)

        async def main():
            async with server:
                return await LoadGenerator(
                    server.submit, rate_rps=2000.0,
                    arrival="poisson", seed=11).run(images)

        report = asyncio.run(main())
        assert report.failed == 0
        np.testing.assert_array_equal(
            [r.prediction for r in report.results],
            direct_predictions(network, images))
