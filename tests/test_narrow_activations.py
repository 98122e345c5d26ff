"""Narrow activations: the vectorized engine's dtype boundaries are exact.

The vectorized engine keeps every activation in the narrowest unsigned
type holding ``[0, 2**T - 1]`` (``uint8`` up to T=8, ``uint16`` up to
16, ``uint32`` beyond), requantizes the GEMM rows straight into that
type, widens pool window sums to ``size**2 * (2**T - 1)`` and builds
the tails of silent images on each layer's cached ``requantize(bias)``
row.  Each case here drives one of those edges — the type changes, a
saturated window that overflows the activation type, biases that
requantize to 0 and to ``2**T - 1`` next to silent frames — and
asserts logits and every trace field equal to ``reference``.
``requantize`` itself is held to the int64 formula on random
accumulators up to ``2**52``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AcceleratorConfig
from repro.core.engine import create_engine, warm_compile
from repro.snn.spec import requantize
from test_engine_sparse import _assert_all_equal, _net

WIDTHS = {8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32}


def _loud(net, gain):
    """``net`` with every requantizing layer's scales times ``gain``, so
    activity survives the stack, and nonnegative first-layer weights, so
    a saturated input saturates that layer at ``2**T - 1``."""
    layers = []
    for spec in net.layers:
        if spec.kind == "conv" or (spec.kind == "linear"
                                   and not spec.is_output):
            weights = np.abs(spec.weights) if not layers else spec.weights
            spec = replace(spec, weights=weights, scales=spec.scales * gain)
        layers.append(spec)
    return replace(net, layers=tuple(layers))


def _engine(net):
    return create_engine("vectorized",
                         warm_compile(net, AcceleratorConfig.for_network(net)))


def _activations(net, images):
    """Every kernel's output, in layer order (logits last): the live
    rows of each conv, pool and linear layer."""
    engine = _engine(net)
    engine._tails  # built once per engine; their runs are not recorded
    outputs = []
    for name in ("_conv_out", "_pool_out", "_linear_out"):
        def record(program, x, _run=getattr(engine, name)):
            out = _run(program, x)
            outputs.append(out)
            return out

        setattr(engine, name, record)
    engine.run_merged(images)
    return outputs


class TestDtypeBoundaries:
    @pytest.mark.parametrize("num_steps", sorted(WIDTHS))
    def test_type_changes_match_reference(self, rng, num_steps):
        """T on both sides of the uint8 -> uint16 -> uint32 changes."""
        net = _loud(_net(int(rng.integers(1 << 16)), stack=[
            ("conv", 3, 3, 1, 1), ("pool", 2), ("flatten",),
            ("linear", 8), ("linear", 4)], input_shape=(1, 6, 6),
            num_steps=num_steps), gain=6.0)
        images = rng.random((3,) + net.input_shape)
        images[1] = 0.0
        images[2, :, :3] = 1.0                 # saturated rows
        hidden = _activations(net, images)[:-1]
        assert {a.dtype for a in hidden} == {np.dtype(WIDTHS[num_steps])}
        top = (1 << num_steps) - 1
        assert max(int(a.max()) for a in hidden) == top
        _assert_all_equal(net, images)

    def test_saturated_window_overflows_the_activation_type(self, rng):
        """Every pixel at 2**T - 1 into a 2x2 pool: 4 * 255 does not fit
        in uint8, so the window sum must widen before the shift."""
        net = _loud(_net(int(rng.integers(1 << 16)), stack=[
            ("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 3, 3, 1, 1),
            ("pool", 2), ("flatten",), ("linear", 5)], input_shape=(1, 8, 8),
            num_steps=8), gain=1e3)
        images = np.ones((2,) + net.input_shape)
        images[1] = 0.0
        outputs = _activations(net, images)
        pooled = outputs[1]
        assert pooled.dtype == np.uint8
        # conv1 saturates every channel it drives positive; the pool of
        # four 255s is 255 again, not (4 * 255 mod 256) >> 2 = 63.
        channel_max = outputs[0][0].max(axis=(0, 1))  # (H, W, C) image
        assert (channel_max == 255).any()
        assert (channel_max[channel_max > 0] == 255).all()
        assert pooled[0].max() == 255
        _assert_all_equal(net, images)

    def test_extreme_biases_beside_silent_frames(self, rng):
        """Conv and hidden linear biases that requantize to 0 and to
        2**T - 1 on their own, in a batch mixing silent and live frames:
        the silent frames' tails run on the cached requantize(bias)
        rows."""
        net = _net(int(rng.integers(1 << 16)), stack=[
            ("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",),
            ("linear", 6), ("linear", 5)], input_shape=(1, 8, 8),
            num_steps=8)
        top = (1 << net.num_steps) - 1
        layers = []
        for spec in net.layers:
            if spec.kind in ("conv", "linear") and not (
                    spec.kind == "linear" and spec.is_output):
                # Alternate: far below zero, zero, far past the top.
                levels = np.resize([-4 * top, 0, 4 * top], spec.bias.shape)
                spec = replace(spec, bias=np.rint(levels / spec.scales)
                               .astype(np.int64))
            layers.append(spec)
        net = replace(net, layers=tuple(layers))
        engine = _engine(net)
        rows = [row for row in engine._silent_outputs[:-1]
                if row is not None and row.ndim]
        assert {int(v) for row in rows for v in row.ravel()} == {0, top}
        images = rng.random((5,) + net.input_shape)
        images[[0, 3]] = 0.0
        _assert_all_equal(net, images)


class TestRequantizeBiasAndDtype:
    @staticmethod
    def _int64_path(acc, bias, scales, num_steps):
        """The requantize formula on the int64 sum, step by step."""
        total = (acc + bias).astype(np.float64)
        return np.clip(np.floor(total * scales + 0.5), 0,
                       (1 << num_steps) - 1).astype(np.int64)

    @pytest.mark.parametrize("num_steps", [3, 8, 9, 16, 17])
    def test_equals_the_int64_sum(self, rng, num_steps):
        channels = 7
        magnitude = np.array([1 << 10, 1 << 30, 1 << 52])
        acc = np.concatenate([
            rng.integers(-m, m, size=(40, channels)) for m in magnitude])
        acc[:4] = (1 << 52) - np.arange(4)[:, None]   # near 2**52
        acc[4:8] = -(1 << 52) + np.arange(4)[:, None]
        bias = rng.integers(-(1 << 20), 1 << 20, size=channels)
        # Scales that map each magnitude class across [0, 2**T - 1].
        top = (1 << num_steps) - 1
        scales = top / rng.choice(magnitude, size=channels) * \
            rng.uniform(0.5, 2.0, size=channels)
        want = self._int64_path(acc, bias, scales, num_steps)
        assert (want == 0).any() and (want == top).any()
        assert ((want > 0) & (want < top)).any()
        dtype = np.min_scalar_type(top)
        got = requantize(acc, scales, num_steps, channel_axis=-1,
                         bias=bias, dtype=dtype)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        # The same on float64 accumulators (the GEMM's exact products).
        np.testing.assert_array_equal(
            requantize(acc.astype(np.float64), scales, num_steps,
                       channel_axis=-1, bias=bias, dtype=dtype), want)
        # Biases far past float32's 2**24, cancelled by the accumulator
        # down to [-2, 2**T + 2]: the small sum needs every bit of both.
        bias = np.array([(1 << 40) + 1, -(1 << 50) - 3, (1 << 52) - 1])
        acc = np.arange(-2, top + 3)[:, None] - bias
        np.testing.assert_array_equal(
            requantize(acc, np.ones(3), num_steps, channel_axis=-1,
                       bias=bias, dtype=dtype),
            self._int64_path(acc, bias, np.ones(3), num_steps))

    def test_channel_axis_and_default_dtype(self, rng):
        acc = rng.integers(-500, 500, size=(3, 4, 5, 5))
        bias = rng.integers(-50, 50, size=4)
        scales = rng.uniform(0.01, 0.05, size=4)
        got = requantize(acc, scales, 4, channel_axis=1, bias=bias)
        assert got.dtype == np.int64
        want = self._int64_path(
            np.moveaxis(acc, 1, -1), bias, scales, 4)
        np.testing.assert_array_equal(np.moveaxis(got, 1, -1), want)
        np.testing.assert_array_equal(
            got, requantize(acc + bias.reshape(1, -1, 1, 1), scales, 4,
                            channel_axis=1))
