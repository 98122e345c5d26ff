"""Probe inputs, the codec's COO threshold and saturating shard sizing.

Pinned here:

* :func:`probe_batch` lands on its target density, honours
  ``silent_frac`` and otherwise silences exactly the share of frames
  :func:`event_silent_frac` gives;
* the codec ships COO below ``DEFAULT_COO_RATIO`` (0.9) of the raw
  bytes, the ``coo_ratio=`` keyword moves that choice, and either
  representation rebuilds the array bit-for-bit;
* ``SweepDriver(saturate=True)`` changes scheduling only: merged
  outcomes are bit-identical to the fixed-shard run, and the sizer adds
  the fabric's fixed dispatch cost to the per-batch cost it measures.
"""

import json

import numpy as np
import pytest

from repro.core import AcceleratorConfig
from repro.core.engine.calibrate import event_silent_frac, probe_batch
from repro.harness.sweep import SweepDriver, SweepTask
from repro.harness.sweep import driver as sweep_driver
from repro.models import performance_network
from repro.runtime import codec


def tiny_network(rng, num_steps=3):
    return performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=num_steps,
        seed=int(rng.integers(1 << 16)))


class TestProbeBatch:
    def test_probe_batch_hits_target_density(self, rng):
        for density in (0.05, 0.3, 0.9):
            images = probe_batch((1, 16, 16), density, 8, rng)
            realized = np.count_nonzero(images) / images.size
            assert realized == pytest.approx(density, rel=0.5)
        silent = probe_batch((1, 16, 16), 0.1, 32, rng, silent_frac=1.0)
        assert not silent.any()

    def test_event_silent_frac_tapers_to_none(self):
        assert event_silent_frac(0.0) == 0.75
        assert event_silent_frac(0.05) == 0.75
        assert event_silent_frac(0.1) == pytest.approx(0.6)
        assert event_silent_frac(0.25) == 0.0
        assert event_silent_frac(0.9) == 0.0
        fracs = [event_silent_frac(d) for d in np.linspace(0, 1, 41)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_default_silent_count_follows_event_silent_frac(self, rng):
        """Without ``silent_frac`` exactly ``round(batch * frac)``
        frames are silent, and every other frame carries its blob."""
        for density in (0.02, 0.1, 0.2, 0.5):
            images = probe_batch((1, 16, 16), density, 40, rng)
            live = images.reshape(40, -1).any(axis=1)
            assert np.count_nonzero(~live) == round(
                40 * event_silent_frac(density))


class TestCodecRatio:
    @staticmethod
    def _round_trip(array, ratio):
        """Encode ``array`` at ``ratio``; its wire encoding and the
        decoded array."""
        frame = codec.encode_frame({}, {"x": array}, coo_ratio=ratio)
        hlen, _ = codec.parse_frame_prefix(
            frame[:codec.FRAME_PREFIX_LEN])
        header = frame[codec.FRAME_PREFIX_LEN:
                       codec.FRAME_PREFIX_LEN + hlen]
        encoding = json.loads(header)["arrays"]["x"]["enc"]
        _, arrays = codec.decode_frame(
            header, frame[codec.FRAME_PREFIX_LEN + hlen:])
        return encoding, arrays["x"]

    def test_ratio_moves_the_encoding_choice(self, rng):
        # ~30% dense float64 array: COO costs ~0.45x raw bytes, so it
        # ships COO above that ratio and raw below.
        array = rng.random((1, 32, 32)) * (rng.random((1, 32, 32)) < 0.3)
        nnz = int(np.count_nonzero(array))
        byte_ratio = nnz * (4 + array.itemsize) / array.nbytes
        assert byte_ratio < codec.DEFAULT_COO_RATIO
        for ratio, expected in ((byte_ratio * 1.2, "coo"),
                                (byte_ratio * 0.8, "raw"),
                                (None, "coo")):
            encoding, decoded = self._round_trip(array, ratio)
            assert encoding == expected
            # Either representation rebuilds the array bit-for-bit.
            np.testing.assert_array_equal(decoded, array)

    def test_default_threshold_is_the_codec_constant(self, rng):
        # float64 COO costs 12 bytes per nonzero against 8 per element,
        # so 614 of 1,024 nonzeros sit just under 0.9 of the raw bytes
        # and 615 just over.
        assert codec.DEFAULT_COO_RATIO == 0.9
        for nnz, expected in ((614, "coo"), (615, "raw")):
            array = np.zeros(1024)
            array[rng.permutation(1024)[:nnz]] = rng.uniform(
                0.5, 1.0, size=nnz)
            encoding, decoded = self._round_trip(array, None)
            assert encoding == expected
            np.testing.assert_array_equal(decoded, array)


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

    def test_saturate_uses_dispatch_cost(self, rng, monkeypatch):
        net = tiny_network(rng)
        config = AcceleratorConfig.for_network(net)
        # Fixed probe timings (0.1 ms per image, no per-batch cost) so
        # the dispatch cost is the sizer's only overhead.
        monkeypatch.setattr(SweepDriver, "_timed", staticmethod(
            lambda engine, images: 1e-4 * len(images)))
        driver = SweepDriver(workers=1, saturate=True)
        task = SweepTask(key="cell", network=net, config=config,
                         images=rng.random((40,) + tuple(net.input_shape)),
                         labels=np.zeros(40, dtype=np.int64))
        # A huge dispatch cost must push shards to the balance cap...
        monkeypatch.setattr(sweep_driver, "DEFAULT_DISPATCH_COST_S", 10.0)
        assert driver._saturating_shard_sizes([task]) == [20]  # 40 / 2
        # ...and with none there is nothing to amortize.
        monkeypatch.setattr(sweep_driver, "DEFAULT_DISPATCH_COST_S", 0.0)
        assert driver._saturating_shard_sizes([task]) == [1]
