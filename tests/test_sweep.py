"""Sweep-driver determinism and hardware-in-the-loop accuracy.

The contracts pinned here:

* any worker count and any shard size merge to bit-identical
  predictions, accuracies and trace counters (the sharded sweep is a
  pure re-scheduling of the single-process run);
* ``Accelerator.evaluate`` equals ``SNNModel.accuracy`` (the engine
  equivalence contract carried through to dataset scoring);
* compiled state and traces are picklable, so work can cross process
  boundaries;
* the persistent result store keys include the backend name, so
  switching engines can never serve a foreign result.
"""

import pickle

import numpy as np
import pytest

from repro.core import (
    Accelerator,
    AcceleratorConfig,
    Controller,
    TraceMerge,
    compile_network,
    create_engine,
    trace_energy,
)
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError, ShapeError
from repro.harness import ArtifactStore, ExperimentRunner, ExperimentSettings
from repro.harness.sweep import (
    SweepDriver,
    SweepTask,
    TaskOutcome,
    shard_tasks,
)
from repro.models import performance_network
from repro.snn import SNNModel


pytestmark = pytest.mark.usefixtures("fabric_leak_check")


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


def tiny_task(rng, key="cell", num_images=18, backend="vectorized"):
    net = tiny_network(rng)
    images = rng.random((num_images,) + net.input_shape)
    labels = rng.integers(0, 5, size=num_images)
    return SweepTask(key=key, network=net,
                     config=AcceleratorConfig.for_network(net),
                     images=images, labels=labels, backend=backend)


class TestSharding:
    def test_shard_cover_and_order(self, rng):
        task = tiny_task(rng, num_images=11)
        units = shard_tasks([task], shard_size=4)
        assert [(u.start, u.stop) for u in units] == [(0, 4), (4, 8),
                                                      (8, 11)]
        assert all(u.task_key == "cell" for u in units)

    def test_bad_shard_size_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            shard_tasks([tiny_task(rng)], shard_size=0)

    def test_task_validation(self, rng):
        net = tiny_network(rng)
        with pytest.raises(ShapeError):
            SweepTask(key="bad", network=net,
                      config=AcceleratorConfig.for_network(net),
                      images=rng.random((3,) + net.input_shape),
                      labels=rng.integers(0, 5, size=4))
        with pytest.raises(ConfigurationError):
            SweepTask(key="empty", network=net,
                      config=AcceleratorConfig.for_network(net),
                      images=rng.random((0,) + net.input_shape),
                      labels=rng.integers(0, 5, size=0))


class TestDeterminism:
    def test_workers_and_shard_sizes_identical(self, rng):
        """workers=1 vs workers=4, any shard size: bit-identical merges."""
        task = tiny_task(rng, num_images=18)
        baseline = SweepDriver(workers=1, shard_size=18).run(
            [task])[task.key]
        for workers, shard_size in ((1, 5), (4, 4), (4, 7)):
            outcome = SweepDriver(workers=workers,
                                  shard_size=shard_size).run(
                [task])[task.key]
            np.testing.assert_array_equal(outcome.predictions,
                                          baseline.predictions)
            assert outcome.correct == baseline.correct
            assert outcome.trace == baseline.trace

    def test_multi_task_sweep_matches_direct_runs(self, rng):
        """A configs-sweep merges each cell as if run alone."""
        tasks = [tiny_task(rng, key=f"cell{i}", num_images=9)
                 for i in range(3)]
        outcomes = SweepDriver(workers=2, shard_size=4).run(tasks)
        assert list(outcomes) == [t.key for t in tasks]
        for task in tasks:
            engine = create_engine(
                "vectorized",
                compile_network(task.network, task.config))
            logits, traces = engine.run_batch(task.images)
            np.testing.assert_array_equal(
                outcomes[task.key].predictions, logits.argmax(axis=1))
            assert outcomes[task.key].trace == TraceMerge.from_traces(
                traces)

    def test_merged_trace_equals_single_process_trace(self, rng):
        task = tiny_task(rng, num_images=10)
        outcome = SweepDriver(workers=4, shard_size=3).run(
            [task])[task.key]
        controller = Controller(
            compile_network(task.network, task.config),
            backend="vectorized")
        _, merged = controller.run_images(task.images)
        assert outcome.trace == merged

    def test_duplicate_keys_rejected(self, rng):
        task = tiny_task(rng)
        with pytest.raises(ConfigurationError):
            SweepDriver().run([task, task])

    def test_empty_work_list_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepDriver().run([])


class TestAdaptiveSharding:
    def test_per_task_shard_sizes(self, rng):
        tasks = [tiny_task(rng, key=f"cell{i}", num_images=10)
                 for i in range(2)]
        units = shard_tasks(tasks, [4, 10])
        starts = {(u.task_index, u.start, u.stop) for u in units}
        assert starts == {(0, 0, 4), (0, 4, 8), (0, 8, 10), (1, 0, 10)}

    def test_shard_size_list_must_match_tasks(self, rng):
        with pytest.raises(ConfigurationError):
            shard_tasks([tiny_task(rng)], [4, 5])
        with pytest.raises(ConfigurationError):
            shard_tasks([tiny_task(rng)], [0])

    def test_fixed_summary_has_no_adaptive_fields(self, rng):
        driver = SweepDriver(workers=1, shard_size=5)
        driver.run([tiny_task(rng, num_images=7)])
        assert not driver.last_summary.saturate
        assert driver.last_summary.task_shard_sizes is None
        assert driver.last_summary.num_units == 2


class TestHardwareAccuracy:
    def test_evaluate_matches_snn_accuracy(self, rng):
        """Accelerator.evaluate == snn.accuracy on a sampled test set."""
        net = tiny_network(rng)
        snn = SNNModel(net)
        dataset = Dataset(rng.random((40,) + net.input_shape),
                          rng.integers(0, 5, size=40), 5)
        accelerator = Accelerator(AcceleratorConfig.for_network(net),
                                  backend="vectorized")
        accelerator.deploy(snn)
        assert accelerator.evaluate(dataset, batch_size=16) \
            == snn.accuracy(dataset)

    def test_sweep_accuracy_matches_evaluate(self, rng):
        task = tiny_task(rng, num_images=30)
        outcome = SweepDriver(workers=2, shard_size=8).run(
            [task])[task.key]
        accelerator = Accelerator(task.config, backend="vectorized")
        accelerator.deploy(SNNModel(task.network))
        dataset = Dataset(task.images, task.labels, 5)
        assert outcome.accuracy == accelerator.evaluate(dataset)


class TestPicklability:
    def test_compiled_model_roundtrip(self, rng):
        """Compiled state crosses process boundaries intact."""
        net = tiny_network(rng)
        compiled = compile_network(net, AcceleratorConfig.for_network(net))
        restored = pickle.loads(pickle.dumps(compiled))
        images = rng.random((2,) + net.input_shape)
        logits, traces = create_engine("vectorized",
                                       compiled).run_batch(images)
        logits2, traces2 = create_engine("vectorized",
                                         restored).run_batch(images)
        np.testing.assert_array_equal(logits, logits2)
        assert (TraceMerge.from_traces(traces)
                == TraceMerge.from_traces(traces2))

    def test_trace_merge_roundtrips(self, rng):
        net = tiny_network(rng)
        engine = create_engine(
            "vectorized",
            compile_network(net, AcceleratorConfig.for_network(net)))
        _, traces = engine.run_batch(rng.random((3,) + net.input_shape))
        merged = TraceMerge.from_traces(traces)
        assert pickle.loads(pickle.dumps(merged)) == merged
        assert TraceMerge.from_dict(merged.to_dict()) == merged


class TestTraceMerge:
    def test_merge_is_shard_invariant(self, rng):
        net = tiny_network(rng)
        engine = create_engine(
            "vectorized",
            compile_network(net, AcceleratorConfig.for_network(net)))
        _, traces = engine.run_batch(rng.random((7,) + net.input_shape))
        whole = TraceMerge.from_traces(traces)
        pieces = TraceMerge.from_traces(traces[:2])
        pieces.merge(TraceMerge.from_traces(traces[2:5]))
        pieces.merge(TraceMerge.from_traces(traces[5:]))
        assert pieces == whole
        assert whole.num_images == 7
        assert whole.total_cycles == sum(t.total_cycles for t in traces)

    def test_energy_from_merge_matches_single_trace(self, rng):
        net = tiny_network(rng)
        engine = create_engine(
            "vectorized",
            compile_network(net, AcceleratorConfig.for_network(net)))
        _, traces = engine.run_batch(rng.random((1,) + net.input_shape))
        single = trace_energy(traces[0])
        merged = trace_energy(TraceMerge.from_traces(traces))
        assert single == merged


class TestResultStore:
    def test_second_run_served_from_store(self, tmp_path, rng):
        task = tiny_task(rng)
        store = ArtifactStore(tmp_path)
        first = SweepDriver(store=store).run([task])[task.key]
        assert not first.cached
        second = SweepDriver(store=store).run([task])[task.key]
        assert second.cached
        np.testing.assert_array_equal(first.predictions,
                                      second.predictions)
        assert first.trace == second.trace
        assert second.accuracy == first.accuracy

    def test_store_keys_include_backend(self, tmp_path, rng):
        """A result computed under one engine is never served to another."""
        store = ArtifactStore(tmp_path)
        ref_task = tiny_task(rng, key="cell", num_images=2,
                             backend="reference")
        vec_task = SweepTask(key="cell", network=ref_task.network,
                             config=ref_task.config,
                             images=ref_task.images,
                             labels=ref_task.labels, backend="vectorized")
        assert SweepDriver.store_key(ref_task) \
            != SweepDriver.store_key(vec_task)
        SweepDriver(store=store).run([ref_task])
        vec_outcome = SweepDriver(store=store).run([vec_task])["cell"]
        assert not vec_outcome.cached  # recomputed, not cross-served
        # Both engines agree anyway — the equivalence contract.
        ref_outcome = TaskOutcome.from_dict(
            store.load_result(SweepDriver.store_key(ref_task)))
        np.testing.assert_array_equal(ref_outcome.predictions,
                                      vec_outcome.predictions)
        assert ref_outcome.trace == vec_outcome.trace

    def test_experiment_runner_score_keys_name_engine(self, tmp_path):
        settings = ExperimentSettings(
            train_count=100, test_count=20, calibration_count=16,
            base_epochs=1, t3_epochs=1, fast=True)
        vec = ExperimentRunner(settings=settings,
                               store=ArtifactStore(tmp_path))
        ref = ExperimentRunner(settings=settings,
                               store=ArtifactStore(tmp_path),
                               score_backend="reference")
        assert vec._score_key("lenet_t3") != ref._score_key("lenet_t3")
        assert "vectorized" in vec._score_key("lenet_t3")
        assert "reference" in ref._score_key("lenet_t3")


class TestProgress:
    def test_progress_ticks_cover_all_units(self, rng):
        task = tiny_task(rng, num_images=10)
        ticks = []
        SweepDriver(workers=1, shard_size=3,
                    progress=ticks.append).run([task])
        assert [p.done_units for p in ticks] == [1, 2, 3, 4]
        assert ticks[-1].done_images == 10
        assert ticks[-1].total_images == 10
        assert ticks[-1].images_per_second > 0

    def test_summary_reports_throughput(self, rng):
        task = tiny_task(rng, num_images=10)
        driver = SweepDriver(workers=2, shard_size=5)
        driver.run([task])
        summary = driver.last_summary
        assert summary.num_tasks == 1
        assert summary.num_units == 2
        assert summary.num_images == 10
        assert summary.cached_tasks == 0
        assert summary.images_per_second > 0
