"""The runtime worker fabric: executors, stealing, liveness, codecs.

The contracts pinned here:

* any executor mix — thread, process, remote TCP — merges to results
  bit-identical to a single in-process lane (the fabric's acceptance
  contract, carried by integer logits and TraceMerge counters through
  the exact wire codec);
* work stealing only changes *scheduling*: a skewed static assignment
  with stealing enabled produces the same merged results, faster paths
  counted in ``metrics.stolen``;
* a worker dying mid-run deadlocks nothing — the group evicts it,
  requeues its in-flight and queued items on healthy lanes, and counts
  the crash; heartbeats evict silently dead lanes even when idle;
* the sweep driver and serving pool run entirely on the fabric, so a
  sweep spanning one in-process lane plus one TCP worker equals the
  serial run bit for bit.
"""

import gc
import io
import os
import pickle
import signal
import socket
import threading
import time
import types
import weakref

import numpy as np
import pytest

from repro.core import AcceleratorConfig
from repro.errors import (
    ConfigurationError,
    DeploymentError,
    WorkerCrashError,
)
from repro.harness.sweep import SweepDriver, SweepTask
from repro.models import performance_network
from repro.runtime import group as group_module
from repro.runtime import (
    Deployment,
    ProcessWorker,
    RemoteWorker,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    create_workers,
    encode_frame,
    normalize_worker_specs,
    read_frame,
)


pytestmark = pytest.mark.usefixtures("fabric_leak_check")


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


def run_group(workers, deployment, items, **group_kwargs):
    with WorkerGroup(workers, deployments=[deployment],
                     **group_kwargs) as group:
        results = group.run(items)
        metrics = group.metrics
    return results, metrics


def frame_roundtrip(arrays: dict) -> dict:
    """Arrays through one RBF1 frame, as a remote lane sees them."""
    _, decoded = read_frame(io.BytesIO(encode_frame({}, arrays)))
    return decoded


class TestCodec:
    def test_array_roundtrip_bit_identical(self, rng):
        for array in (rng.random((3, 1, 8, 8)),
                      rng.integers(-5, 99, size=(4, 5)),
                      np.zeros((2, 0, 3))):
            restored = frame_roundtrip({"x": array})["x"]
            assert restored.dtype == array.dtype
            np.testing.assert_array_equal(restored, array)

    def test_blob_roundtrip_carries_deployments(self, rng):
        """A deploy pickle rides a frame body as raw uint8 bytes."""
        deployment = tiny_deployment(rng)
        blob = np.frombuffer(pickle.dumps([deployment]), dtype=np.uint8)
        restored = pickle.loads(frame_roundtrip({"blob": blob})["blob"])[0]
        assert restored.backend == deployment.backend
        images = rng.random((2,) + deployment.network.input_shape)
        a, _ = deployment.engine().run_batch(images)
        b, _ = restored.engine().run_batch(images)
        np.testing.assert_array_equal(a, b)


class TestWorkerSpecs:
    def test_integer_counts(self):
        assert normalize_worker_specs(1) == ["thread"]
        assert normalize_worker_specs(3) == ["process"] * 3
        with pytest.raises(ConfigurationError):
            normalize_worker_specs(0)

    def test_spec_strings_and_multipliers(self):
        assert normalize_worker_specs(["thread", "process:2"]) == \
            ["thread", "process", "process"]
        assert normalize_worker_specs("10.0.0.5:7601") == ["10.0.0.5:7601"]
        with pytest.raises(ConfigurationError):
            normalize_worker_specs(["fiber"])
        with pytest.raises(ConfigurationError):
            normalize_worker_specs(["host:notaport"])
        with pytest.raises(ConfigurationError):
            normalize_worker_specs([])

    def test_create_workers_kinds_and_names(self):
        workers = create_workers(["thread", "process", "127.0.0.1:1"])
        assert [w.kind for w in workers] == ["thread", "process", "remote"]
        assert len({w.name for w in workers}) == 3


class TestExecutorEquivalence:
    def test_thread_process_remote_bit_identical(self, rng):
        """The fabric's core contract: executor choice never shows."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=5)
        baseline, _ = run_group([ThreadWorker()], deployment, items)

        server = WorkerServer().start()
        try:
            for workers in ([ProcessWorker()],
                            [RemoteWorker("127.0.0.1", server.port)],
                            create_workers(["thread", "process",
                                            f"127.0.0.1:{server.port}"])):
                results, metrics = run_group(workers, deployment, items)
                for base, other in zip(baseline, results):
                    np.testing.assert_array_equal(base.logits,
                                                  other.logits)
                    assert base.merged_trace() == other.merged_trace()
                assert sum(metrics.executed.values()) == len(items)
        finally:
            server.close()

    def test_results_return_in_input_order(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        results, _ = run_group(create_workers(["thread", "thread"]),
                               deployment, items)
        assert [r.item_id for r in results] == [i.item_id for i in items]

    def test_task_error_fails_item_not_lane(self, rng):
        """A bad work item errors its own future; the lane lives on."""
        deployment = tiny_deployment(rng)
        good = make_items(rng, deployment, count=2)
        bad = WorkItem(item_id=99, deployment=0,
                       images=rng.random((2, 3, 3)))  # wrong rank
        with WorkerGroup([ThreadWorker()],
                         deployments=[deployment]) as group:
            with pytest.raises(Exception):
                group.run([bad])
            results = group.run(good)   # lane still healthy
            assert len(results) == 2
            assert group.metrics.worker_crashes == 0


class TestWorkStealing:
    def test_skewed_static_assignment_steals_and_matches(self, rng):
        """Stealing rebalances a skewed assignment without changing
        the merged outcome."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8)
        baseline, _ = run_group([ThreadWorker()], deployment, items)

        # Pin everything to lane 0; lane 1 only gets work by stealing.
        # Lane 0 holds its first item until lane 1 has run one, so it
        # cannot drain the whole queue before lane 1 looks for work.
        stolen = threading.Event()

        class HeldLane(ThreadWorker):
            def execute(self, item):
                stolen.wait(timeout=30.0)
                return super().execute(item)

        class StealingLane(ThreadWorker):
            def execute(self, item):
                result = super().execute(item)
                stolen.set()
                return result

        workers = [HeldLane(name="held"), StealingLane(name="stealer")]
        with WorkerGroup(workers, deployments=[deployment],
                         steal=True) as group:
            stolen_results = group.run(items,
                                       assignment=[0] * len(items))
            assert group.metrics.stolen > 0
            assert group.metrics.executed[workers[1].name] > 0
        for base, other in zip(baseline, stolen_results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_steal_disabled_pins_items(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        workers = create_workers(["thread", "thread"])
        with WorkerGroup(workers, deployments=[deployment],
                         steal=False) as group:
            group.run(items, assignment=[0] * len(items))
            assert group.metrics.stolen == 0
            assert group.metrics.executed[workers[0].name] == len(items)
            assert group.metrics.executed[workers[1].name] == 0


class TestCrashRecovery:
    def test_dead_process_worker_requeues_on_healthy_lane(self, rng):
        """A killed child must not deadlock the group: its items move
        to a healthy lane and the crash is counted."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        baseline, _ = run_group([ThreadWorker()], deployment, items)

        workers = [ProcessWorker(name="doomed"),
                   ThreadWorker(name="healthy")]
        with WorkerGroup(workers, deployments=[deployment], steal=False,
                         heartbeat_s=30.0) as group:
            os.kill(workers[0].pid, signal.SIGKILL)
            futures = [group.submit(item, worker=0) for item in items]
            results = [f.result(timeout=60) for f in futures]
            assert group.metrics.worker_crashes == 1
            assert group.metrics.requeued >= 1
            assert group.metrics.executed["healthy"] == len(items)
            assert group.alive_workers() == ["healthy"]
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_all_workers_dead_fails_fast(self, rng):
        deployment = tiny_deployment(rng)
        worker = ProcessWorker()
        with WorkerGroup([worker], deployments=[deployment],
                         heartbeat_s=30.0) as group:
            os.kill(worker.pid, signal.SIGKILL)
            future = group.submit(make_items(rng, deployment, 1)[0])
            with pytest.raises(WorkerCrashError):
                future.result(timeout=60)
            assert group.metrics.worker_crashes == 1

    def test_healthy_run_reports_zero_fault_counters(self, rng):
        """The fault-path counters exist (and stay zero) on a clean
        run, so dashboards can key on them unconditionally."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        _, metrics = run_group([ThreadWorker(name="a"),
                                ThreadWorker(name="b")],
                               deployment, items)
        payload = metrics.to_dict()
        for counter in ("requeued", "retries", "poisoned"):
            assert payload[counter] == 0
        assert metrics.worker_crashes == 0

    def test_heartbeat_evicts_silently_dead_remote(self, rng):
        """An idle lane whose host vanished is evicted by the monitor."""
        deployment = tiny_deployment(rng)
        server = WorkerServer().start()
        workers = [RemoteWorker("127.0.0.1", server.port, name="gone"),
                   ThreadWorker(name="stay")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=0.05) as group:
            group.run(make_items(rng, deployment, 2))
            server.close()  # host dies while the fabric is idle
            deadline = time.time() + 10
            while ("gone" in group.alive_workers()
                   and time.time() < deadline):
                time.sleep(0.05)
            assert group.alive_workers() == ["stay"]
            assert group.metrics.worker_crashes == 1
            # The survivor keeps serving.
            results = group.run(make_items(rng, deployment, 2))
            assert all(r.worker == "stay" for r in results)

    def test_unreachable_remote_at_start_is_tolerated(self, rng):
        """A dead host in the spec list degrades, not aborts, the group."""
        deployment = tiny_deployment(rng)
        server = WorkerServer().start()
        port = server.port
        server.close()  # nothing listens here any more
        workers = [RemoteWorker("127.0.0.1", port, name="unreachable"),
                   ThreadWorker(name="local")]
        with WorkerGroup(workers, deployments=[deployment],
                         heartbeat_s=30.0) as group:
            results = group.run(make_items(rng, deployment, 3))
            assert group.metrics.worker_crashes == 1
            assert all(r.worker == "local" for r in results)

    def test_second_eviction_report_still_places_in_flight_item(
            self, rng):
        """Monitor and dispatcher may both report one death; the
        dispatcher's in-flight item must be requeued either way, not
        dropped (a dropped item = a future that never resolves)."""
        from repro.runtime.group import _Pending

        deployment = tiny_deployment(rng)
        item = make_items(rng, deployment, 1)[0]
        workers = create_workers(["thread", "thread"])
        with WorkerGroup(workers, deployments=[deployment]) as group:
            pending = _Pending(item)
            pending.attempts = 1
            group._evict(0, WorkerCrashError("monitor saw it first"))
            group._evict(0, WorkerCrashError("dispatcher, mid-batch"),
                         in_flight=pending)
            result = pending.future.result(timeout=30)
            assert result.worker == workers[1].name
            assert group.metrics.worker_crashes == 1  # one death, once
            assert group.metrics.requeued >= 1

    def test_stop_fails_queued_items(self, rng):
        deployment = tiny_deployment(rng)
        group = WorkerGroup([ThreadWorker()], deployments=[deployment])
        group.start()
        group.stop()
        with pytest.raises(ConfigurationError):
            group.submit(make_items(rng, deployment, 1)[0])


class TestRemoteProtocol:
    def test_execute_before_deploy_is_task_error(self, rng):
        """Misrouted work answers with the typed DeploymentError."""
        deployment = tiny_deployment(rng)
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                with pytest.raises(DeploymentError):
                    worker.execute(make_items(rng, deployment, 1)[0])
                # The lane survives a task error and deploys fine after.
                worker.deploy([deployment])
                result = worker.execute(make_items(rng, deployment, 1)[0])
                assert result.logits.shape[0] == 3
            finally:
                worker.close()

    def test_single_execute_op_is_gone(self, rng):
        """A legacy ``execute`` frame answers a typed error and the same
        connection goes on serving ``execute_many``."""
        deployment = tiny_deployment(rng)
        [item] = make_items(rng, deployment, count=1)
        inline = ThreadWorker()
        inline.deploy([deployment])
        baseline = inline.execute(item)
        with WorkerServer() as server:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=10)
            try:
                reader = sock.makefile("rb")
                sock.sendall(encode_frame(
                    {"op": "execute", "item_id": 0, "deployment": 0},
                    {"images": item.images}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is False
                assert reply["error"]["type"] == "ValueError"
                assert "execute" in reply["error"]["message"]
                blob = np.frombuffer(pickle.dumps([deployment]),
                                     dtype=np.uint8)
                sock.sendall(encode_frame({"op": "deploy"},
                                          {"blob": blob}))
                reply, _ = read_frame(reader)
                assert reply["ok"] is True
                sock.sendall(encode_frame(
                    {"op": "execute_many",
                     "items": [{"item_id": 0, "deployment": 0}]},
                    {"images:0": item.images}))
                reply, arrays = read_frame(reader)
                assert reply["ok"] is True
                assert reply["results"][0]["ok"] is True
                np.testing.assert_array_equal(arrays["logits:0"],
                                              baseline.logits)
            finally:
                sock.close()

    def test_ping_and_pid(self, rng):
        with WorkerServer() as server:
            worker = RemoteWorker("127.0.0.1", server.port)
            worker.start()
            try:
                assert worker.ping(timeout_s=5.0)
            finally:
                worker.close()

    def test_two_lanes_one_server(self, rng):
        """Two RemoteWorker lanes may share one host (two connections)."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=4)
        baseline, _ = run_group([ThreadWorker()], deployment, items)
        with WorkerServer() as server:
            spec = f"127.0.0.1:{server.port}"
            results, metrics = run_group(
                create_workers([spec, spec]), deployment, items)
        for base, other in zip(baseline, results):
            np.testing.assert_array_equal(base.logits, other.logits)
        assert sum(metrics.executed.values()) == len(items)


class TestSweepOnFabric:
    def _task(self, rng, key="cell", num_images=24):
        net = tiny_network(rng)
        return SweepTask(key=key, network=net,
                         config=AcceleratorConfig.for_network(net),
                         images=rng.random((num_images,)
                                           + net.input_shape),
                         labels=rng.integers(0, 5, size=num_images))

    def test_mixed_inprocess_plus_tcp_equals_serial(self, rng):
        """The PR's acceptance bar: one in-process lane + one TCP
        remote worker merge bit-identically to the serial run."""
        task = self._task(rng)
        serial = SweepDriver(workers=1,
                             shard_size=task.num_images).run(
            [task])[task.key]
        with WorkerServer() as server:
            driver = SweepDriver(
                workers=["thread", f"127.0.0.1:{server.port}"],
                shard_size=5)
            fabric = driver.run([task])[task.key]
            summary = driver.last_summary
        np.testing.assert_array_equal(fabric.predictions,
                                      serial.predictions)
        assert fabric.trace == serial.trace
        assert fabric.correct == serial.correct
        assert fabric.accuracy == serial.accuracy
        assert summary.workers == 2
        assert summary.executors[0] == "thread"
        assert summary.worker_crashes == 0

    def test_driver_surfaces_crash_count(self, rng):
        """A lane dying mid-sweep: results intact, crash in summary."""
        task = self._task(rng, num_images=30)
        serial = SweepDriver(workers=1, shard_size=30).run(
            [task])[task.key]
        with WorkerServer() as server:
            driver = SweepDriver(
                workers=["thread", f"127.0.0.1:{server.port}"],
                shard_size=3, heartbeat_s=30.0)
            # Kill the host the moment the first shard completes: some
            # of the remote lane's work requeues onto the thread lane.
            driver.progress = lambda tick: (server.close()
                                            if tick.done_units == 1
                                            else None)
            outcome = driver.run([task])[task.key]
        np.testing.assert_array_equal(outcome.predictions,
                                      serial.predictions)
        assert outcome.trace == serial.trace
        # The server may or may not have finished items before dying;
        # the summary must reflect whatever the fabric observed.
        assert driver.last_summary.worker_crashes in (0, 1)

    def test_sweep_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            SweepDriver(workers=0)
        with pytest.raises(ConfigurationError):
            SweepDriver(workers=["warp-drive"])


class TestChunkTimeouts:
    """The chunk deadline is the tightest surviving item budget."""

    def test_min_of_bounded_budgets(self, rng):
        from repro.runtime.work import chunk_timeout_s
        deployment = tiny_deployment(rng)
        shape = deployment.network.input_shape

        def item(timeout):
            return WorkItem(item_id=0, deployment=0,
                            images=rng.random((1,) + shape),
                            timeout_s=timeout)

        assert chunk_timeout_s([item(None), item(None)]) is None
        assert chunk_timeout_s([item(5.0), item(2.0), item(9.0)]) == 2.0
        # One unbounded sibling must NOT disable the others' protection
        # (the old sum-based aggregation returned None here).
        assert chunk_timeout_s([item(None), item(3.0)]) == 3.0
        # Nor may the deadline inflate with chunk size (the old code
        # summed: 3 items x 2 s gave 6 s).
        assert chunk_timeout_s([item(2.0)] * 3) == 2.0

    def test_chunk_deadline_crashes_hung_process_lane(self, rng):
        """A chunk overrunning the tightest item budget surfaces as a
        lane crash (close + WorkerCrashError), not an eternal wait."""
        deployment = tiny_deployment(rng)
        worker = ProcessWorker(name="hung")
        worker.start()
        try:
            worker.deploy([deployment])
            items = [WorkItem(item_id=i, deployment=0,
                              images=rng.random(
                                  (1,) + deployment.network.input_shape),
                              timeout_s=1e-9)
                     for i in range(2)]
            with pytest.raises(WorkerCrashError):
                worker.execute_many(items)
        finally:
            worker.close()


class TestWindowedDispatch:
    """Pipelined lanes: send/collect split, credits, telemetry."""

    def test_windowed_process_lane_bit_identical(self, rng, open_credit):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=10, images_each=2)
        serial, _ = run_group([ThreadWorker()], deployment,
                              [WorkItem(item_id=i.item_id, deployment=0,
                                        images=i.images)
                               for i in items])
        with WorkerGroup([ProcessWorker(name="piped")],
                         deployments=[deployment],
                         max_batch_items=2) as group:
            open_credit(group)               # depth 2: W=2
            results = group.run(items)
            metrics = group.metrics
        assert metrics.pipelined >= 2
        # One warm item opened the credit before the run.
        assert sum(metrics.executed.values()) == len(items) + 1
        for base, other in zip(serial, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_windowed_remote_lane_bit_identical(self, rng, open_credit):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=10, images_each=2)
        serial, _ = run_group([ThreadWorker()], deployment,
                              [WorkItem(item_id=i.item_id, deployment=0,
                                        images=i.images)
                               for i in items])
        with WorkerServer() as server:
            lane = RemoteWorker("127.0.0.1", server.port, name="wire")
            lane.pipeline_depth = 4
            with WorkerGroup([lane], deployments=[deployment],
                             max_batch_items=2) as group:
                open_credit(group)
                results = group.run(items)
                metrics = group.metrics
        assert metrics.pipelined >= 2
        for base, other in zip(serial, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_credit_covers_the_fixed_dispatch_cost(self, monkeypatch):
        """A lane's credit is ``1 + ceil(DEFAULT_DISPATCH_COST_S /
        service)``, clamped to the lane's pipeline depth.  A lane with
        no service measured yet, or a zero dispatch cost, is
        stop-and-wait."""
        group = WorkerGroup([ThreadWorker()])
        lane = types.SimpleNamespace(pipeline_depth=8)

        def credit(service):
            group._service_ewma[0] = service
            with group._lock:
                return group._lane_window_locked(0, lane)

        assert group_module.DEFAULT_DISPATCH_COST_S == 2e-3
        assert credit(None) == 1
        assert credit(1e-3) == 3      # 1 + 2 chunks hide the dispatch
        assert credit(4e-3) == 2
        assert credit(1e-6) == 8      # the remote depth clamps
        lane.pipeline_depth = 3
        assert credit(1e-6) == 3
        monkeypatch.setattr(group_module, "DEFAULT_DISPATCH_COST_S", 0.0)
        assert credit(1e-3) == 1

    def test_remote_depth_is_fixed_and_hello_is_unknown(self):
        """A remote lane's depth is the class constant 8 and a connect
        sends nothing before ``deploy``; a ``hello`` request is an
        unknown op answered with a structured error, and the connection
        stays open."""
        with socket.create_server(("127.0.0.1", 0)) as silent:
            worker = RemoteWorker("127.0.0.1",
                                  silent.getsockname()[1])
            worker.start()       # returns with the peer never answering
            conn, _ = silent.accept()
            try:
                assert worker.pipeline_depth == 8
                conn.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    conn.recv(1)
            finally:
                conn.close()
                worker.close()
        with WorkerServer() as server, socket.create_connection(
                ("127.0.0.1", server.port)) as conn, \
                conn.makefile("rb") as reader:
            conn.sendall(encode_frame({"op": "hello"}))
            reply, _ = read_frame(reader)
            assert reply["ok"] is False
            assert reply["error"]["type"] == "ValueError"
            assert "unknown op 'hello'" in reply["error"]["message"]
            conn.sendall(encode_frame({"op": "ping"}))
            assert read_frame(reader)[0]["ok"] is True

    @pytest.mark.parametrize("kind", ["process", "remote"])
    def test_depth_one_lane_is_stop_and_wait(self, rng, open_credit,
                                             kind):
        """A lane whose ``pipeline_depth`` is 1 never pipelines, however
        wide its credit, and answers bit-identically to serial."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8, images_each=2)
        serial, _ = run_group([ThreadWorker()], deployment,
                              [WorkItem(item_id=i.item_id, deployment=0,
                                        images=i.images)
                               for i in items])
        with WorkerServer() as server:
            lane = (ProcessWorker(name="lane") if kind == "process"
                    else RemoteWorker("127.0.0.1", server.port,
                                      name="lane"))
            lane.pipeline_depth = 1
            with WorkerGroup([lane], deployments=[deployment],
                             max_batch_items=2) as group:
                open_credit(group)
                results = group.run(items)
                metrics = group.metrics
        assert metrics.pipelined == 0
        assert sum(metrics.executed.values()) == len(items) + 1
        for base, other in zip(serial, results):
            np.testing.assert_array_equal(base.logits, other.logits)
            assert base.merged_trace() == other.merged_trace()

    def test_thread_lanes_stay_stop_and_wait(self, rng, open_credit):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=6)
        with WorkerGroup([ThreadWorker()],
                         deployments=[deployment]) as group:
            open_credit(group)
            group.run(items)
            metrics = group.metrics
        assert metrics.pipelined == 0
        assert sum(metrics.executed.values()) == len(items) + 1

    @pytest.mark.parametrize("kind", [ThreadWorker, ProcessWorker],
                             ids=["thread", "process"])
    def test_inflight_telemetry_feeds_registry(self, rng, kind,
                                               open_credit):
        from repro.telemetry import get_registry
        get_registry().reset()
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8, images_each=2)
        with WorkerGroup([kind(name="gauged")],
                         deployments=[deployment],
                         max_batch_items=2) as group:
            open_credit(group)
            group.run(items)
        telemetry = get_registry().to_dict()
        gauge = telemetry["repro_fabric_inflight_chunks"]
        lanes = {entry["labels"]["lane"] for entry in gauge["series"]}
        assert "gauged" in lanes
        occupancy = telemetry["repro_fabric_window_occupancy"]
        [series] = [entry for entry in occupancy["series"]
                    if entry["labels"]["lane"] == "gauged"]
        assert series["count"] >= 2          # one observation per send
        assert series["sum"] >= series["count"]  # depths are >= 1
        if kind is ThreadWorker:
            # Depth-1 lane: every send joined an empty window.
            assert series["sum"] == series["count"]


class TestInlineChunks:
    """The Worker base's send_chunk/collect_chunk pair (inline lanes)."""

    def test_send_collect_matches_execute_many_fifo(self, rng):
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=5, images_each=2)
        misrouted = WorkItem(item_id=99, deployment=3,
                             images=items[0].images)
        worker = ThreadWorker()
        worker.start()
        worker.deploy([deployment])
        chunks = [items[:2], [misrouted, items[2]], items[3:]]
        expected = [worker.execute_many(chunk) for chunk in chunks]
        for chunk in chunks:
            worker.send_chunk(chunk)
        collected = [worker.collect_chunk() for _ in chunks]
        for want, got in zip(expected, collected):
            assert len(want) == len(got)
            for base, other in zip(want, got):
                if isinstance(base, Exception):
                    assert type(other) is type(base)
                    continue
                assert other.item_id == base.item_id
                np.testing.assert_array_equal(base.logits, other.logits)
                assert base.merged_trace() == other.merged_trace()
        assert isinstance(collected[1][0], DeploymentError)
        with pytest.raises(WorkerCrashError):
            worker.collect_chunk()        # nothing left outstanding

    def test_collect_after_close_is_a_crash(self, rng):
        deployment = tiny_deployment(rng)
        worker = ThreadWorker()
        worker.start()
        worker.deploy([deployment])
        worker.send_chunk(make_items(rng, deployment, count=2))
        worker.close()
        with pytest.raises(WorkerCrashError):
            worker.collect_chunk()


class TestBounds:
    """The fabric holds nothing the caller has let go of."""

    @pytest.mark.parametrize("specs", [["thread", "thread"],
                                       ["thread", "process"]])
    def test_dropped_results_are_freed(self, rng, specs):
        """After ``run`` returns, the caller's references are the only
        ones to each ``WorkResult``: a live group keeps no result store,
        so dropping them frees every result (and its logits/trace)."""
        deployment = tiny_deployment(rng)
        items = make_items(rng, deployment, count=8)
        with WorkerGroup(create_workers(specs),
                         deployments=[deployment]) as group:
            results = group.run(items)
            refs = [weakref.ref(result) for result in results]
            del results
            gc.collect()
            alive = [ref() for ref in refs if ref() is not None]
            assert not alive, (
                f"{len(alive)} of {len(refs)} results outlived the caller")


class TestProcessClose:
    """``ProcessWorker.close`` reaps its child before it returns."""

    def test_close_reaps_an_idle_child(self, rng):
        worker = ProcessWorker()
        worker.start()
        worker.deploy([tiny_deployment(rng)])
        pid = worker.pid
        worker.close()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)           # exited and reaped, not a zombie

    def test_blown_budget_terminates_a_hung_child(self, rng):
        """The timeout path closes the lane without waiting on the hung
        call: the child is terminated, then reaped."""
        worker = ProcessWorker()
        worker.start()
        worker.deploy([tiny_deployment(rng)])
        pid = worker.pid
        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            worker._submit(time.sleep, 60, timeout_s=0.2)
        assert time.monotonic() - started < 10
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
