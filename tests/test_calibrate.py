"""The calibration subsystem: measured constants, persisted and wired.

Pinned here:

* :class:`CalibrationTable` survives the artifact store round trip,
  tables stored by earlier versions (with routing, per-layer and
  popcount crossovers) still load, and :func:`calibrate_deployment`
  persists on first measure then serves the table from the store
  (``cached=True``) on re-runs;
* the crossover fit behaves at the edges (COO always wins, raw always
  wins, interpolation between probes);
* :func:`install_table` wires the measured COO ratio into the codec,
  the ``coo_ratio=`` keyword overrides it per frame;
* ``SweepDriver(saturate=True)`` changes scheduling only: merged
  outcomes are bit-identical to the fixed-shard run, and the summary
  says so.
"""

import numpy as np
import pytest

from repro.core import AcceleratorConfig
from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine import (
    CalibrationTable,
    calibrate_deployment,
    calibration_store_key,
    clear_calibration_tables,
    install_table,
    lookup_table,
)
from repro.core.engine.cache import content_key
from repro.core.engine.calibrate import (
    DEFAULT_COO_RATIO,
    _crossover,
    probe_batch,
)
from repro.harness.artifacts import ArtifactStore
from repro.harness.sweep import SweepDriver, SweepTask
from repro.models import performance_network
from repro.runtime import codec


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


@pytest.fixture(autouse=True)
def _isolated_tables():
    """Each test starts and ends with no installed tables."""
    clear_calibration_tables()
    ratio = codec.get_coo_ratio()
    yield
    clear_calibration_tables()
    codec.set_coo_ratio(ratio)


class TestCalibrationTable:
    def test_dict_roundtrip(self):
        table = CalibrationTable(
            content_key="abc123", coo_ratio=0.8, dispatch_cost_s=1.5e-3,
            probe_images=8, densities=(0.02, 0.5),
            probes={"codec": [[0.02, 1.0, 2.0]]})
        restored = CalibrationTable.from_dict(table.to_dict())
        assert restored == table

    def test_loads_a_stored_table_with_a_popcount_crossover(self):
        """Tables written before the popcount gather was removed still
        carry its crossover; they load, and the key is dropped."""
        stored = {
            "content_key": "abc123", "backend_crossover": 0.31,
            "hook_crossovers": {"conv1:conv": 0.7},
            "popcount_gather": 0.0099, "coo_ratio": 0.8,
            "dispatch_cost_s": None, "probe_images": 16,
            "densities": [0.02, 0.5],
            "probes": {"hooks": {}, "popcount": [[0.02, 1.0, 2.0]]}}
        table = CalibrationTable.from_dict(stored)
        assert table.coo_ratio == 0.8
        for key in ("popcount_gather", "backend_crossover",
                    "hook_crossovers"):
            assert key not in table.to_dict()

    def test_loads_a_stored_table_with_routing_crossovers(self):
        """Tables written while the sparse engine routed batches carry
        its batch and per-layer crossovers; they load, the codec ratio
        and dispatch cost survive, and the crossovers are dropped."""
        stored = {
            "content_key": "abc123", "backend_crossover": 0.176,
            "hook_crossovers": {"conv1:conv": 0.41, "conv2:conv": 0.83,
                                "fc1:linear": 0.3},
            "coo_ratio": 0.62, "dispatch_cost_s": 0.0021,
            "probe_images": 16, "densities": [0.02, 0.05, 0.5],
            "probes": {"hooks": {"conv1:conv": [[0.1, 1.0, 2.0]]},
                       "backend": [[0.02, 1.0, 2.0]],
                       "codec": [[0.05, 1.0, 2.0]]}}
        table = CalibrationTable.from_dict(stored)
        assert table.content_key == "abc123"
        assert table.coo_ratio == 0.62
        assert table.dispatch_cost_s == 0.0021
        assert table.densities == (0.02, 0.05, 0.5)
        saved = table.to_dict()
        assert "backend_crossover" not in saved
        assert "hook_crossovers" not in saved
        assert CalibrationTable.from_dict(saved) == table

    def test_crossover_fit_edges(self):
        # Sparse wins everywhere: never fall back.
        assert _crossover([(0.1, 1.0, 2.0), (0.9, 1.0, 2.0)]) == 1.0
        # Dense wins from the first probe: crossover below it.
        assert _crossover([(0.1, 2.0, 1.0), (0.9, 2.0, 1.0)]) == 0.05
        # Equal margins either side: crossover at the midpoint.
        fit = _crossover([(0.2, 1.0, 2.0), (0.6, 2.0, 1.0)])
        assert fit == pytest.approx(0.4)
        assert _crossover([]) == DEFAULT_COO_RATIO

    def test_probe_batch_hits_target_density(self, rng):
        for density in (0.05, 0.3, 0.9):
            images = probe_batch((1, 16, 16), density, 8, rng)
            realized = np.count_nonzero(images) / images.size
            assert realized == pytest.approx(density, rel=0.5)
        silent = probe_batch((1, 16, 16), 0.1, 32, rng, silent_frac=1.0)
        assert not silent.any()


class TestCalibrateDeployment:
    def test_measures_persists_and_reuses(self, rng, tmp_path):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        store = ArtifactStore(tmp_path)
        table, cached = calibrate_deployment(
            net, config, store=store, batch=4, rounds=1,
            densities=(0.05, 0.5, 0.9))
        assert not cached
        # Keyed exactly as the warm cache keys this deployment.
        key = content_key(net, config, DEFAULT_LATENCY)
        assert table.content_key == key
        assert store.has_result(calibration_store_key(key))
        assert 0.1 <= table.coo_ratio <= 1.0
        assert table.probes["codec"], "codec probes produced nothing"

        # Second run: served from the store, not re-measured.
        clear_calibration_tables()
        again, cached = calibrate_deployment(net, config, store=store)
        assert cached
        assert again == table
        # ...and installed, so the sweep driver's lookup finds it.
        assert lookup_table(key) is again

    def test_force_remeasures(self, rng, tmp_path):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        store = ArtifactStore(tmp_path)
        calibrate_deployment(net, config, store=store, batch=4,
                             rounds=1, densities=(0.05, 0.9))
        _, cached = calibrate_deployment(net, config, store=store,
                                         force=True, batch=4, rounds=1,
                                         densities=(0.05, 0.9))
        assert not cached

    def test_lookup_miss_is_negative_cached(self, rng, tmp_path):
        assert lookup_table("no-such-key",
                            store=ArtifactStore(tmp_path)) is None
        assert lookup_table("no-such-key") is None
        table = CalibrationTable(content_key="no-such-key")
        install_table(table)
        assert lookup_table("no-such-key") is table


class TestCodecRatioWiring:
    def test_table_default_matches_codec_default(self):
        """An uncalibrated table installs the codec's own default, so
        installing it moves no encoding choice.  The table's default is
        the codec's own object, not a second copy."""
        assert DEFAULT_COO_RATIO is codec.DEFAULT_COO_RATIO
        assert CalibrationTable(content_key="k").coo_ratio == \
            codec.DEFAULT_COO_RATIO

    def test_install_table_sets_codec_ratio(self):
        install_table(CalibrationTable(content_key="k", coo_ratio=0.55))
        assert codec.get_coo_ratio() == 0.55

    def test_ratio_moves_the_encoding_choice(self, rng):
        # ~30% dense float64 array: COO costs ~0.45x raw bytes, so it
        # ships COO above that ratio and raw below.
        array = rng.random((1, 32, 32)) * (rng.random((1, 32, 32)) < 0.3)
        nnz = int(np.count_nonzero(array))
        byte_ratio = nnz * (4 + array.itemsize) / array.nbytes
        codec.set_coo_ratio(byte_ratio * 1.2)
        assert codec._sparse_wins(array, nnz)
        codec.set_coo_ratio(byte_ratio * 0.8)
        assert not codec._sparse_wins(array, nnz)
        # The per-frame keyword outranks the process-wide setting...
        frame = codec.encode_frame({}, {"x": array}, coo_ratio=2.0)
        hlen, _ = codec.parse_frame_prefix(
            frame[:codec.FRAME_PREFIX_LEN])
        header = frame[codec.FRAME_PREFIX_LEN:
                       codec.FRAME_PREFIX_LEN + hlen]
        _, arrays = codec.decode_frame(
            header, frame[codec.FRAME_PREFIX_LEN + hlen:])
        # ...and either representation rebuilds the array bit-for-bit.
        np.testing.assert_array_equal(arrays["x"], array)


class TestSaturatingShards:
    def test_saturate_is_scheduling_only(self, rng):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        images = rng.random((48,) + tuple(net.input_shape))
        labels = rng.integers(0, 5, size=48)

        def outcome(**kwargs):
            task = SweepTask(key="cell", network=net, config=config,
                             images=images, labels=labels)
            driver = SweepDriver(workers=1, shard_size=8, **kwargs)
            result = driver.run([task])["cell"]
            return result, driver.last_summary

        fixed, fixed_summary = outcome()
        saturated, summary = outcome(saturate=True)
        np.testing.assert_array_equal(saturated.predictions,
                                      fixed.predictions)
        assert saturated.trace.total_cycles == fixed.trace.total_cycles
        assert (saturated.trace.total_adder_ops
                == fixed.trace.total_adder_ops)
        assert summary.saturate and not fixed_summary.saturate
        assert summary.task_shard_sizes["cell"] >= 1

    def test_saturate_uses_calibrated_dispatch_cost(self, rng):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        # A huge measured dispatch cost must push shards to the balance
        # cap; a tiny one must allow small shards.
        install_table(CalibrationTable(
            content_key=content_key(net, config, DEFAULT_LATENCY),
            dispatch_cost_s=10.0))
        driver = SweepDriver(workers=1, saturate=True)
        task = SweepTask(key="cell", network=net, config=config,
                         images=rng.random((40,) + tuple(net.input_shape)),
                         labels=np.zeros(40, dtype=np.int64))
        sizes = driver._saturating_shard_sizes([task])
        assert sizes == [20]  # ceil(40 / (1 lane * 2)) balance cap
