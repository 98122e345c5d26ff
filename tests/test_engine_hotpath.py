"""The per-batch engine path: exact cached GEMM weights, channel-last
activations, O(1) lookups.

Three promises keep weight-sized and layout work off every batch after
the first:

* the batched engines multiply against a float weight matrix cached on
  the compiled layer program.  float32 stays bit-exact by splitting
  ``K`` into chunks whose partial sums are bounded by ``2**24``; a layer
  where one product can exceed that runs in float64.  The worst case —
  every activation at ``2**T - 1``, every weight at the extremes, K
  spanning several chunks — must equal exact int64 arithmetic and the
  ``reference`` engine;
* every conv and pool reads a C-contiguous channel-last
  ``(N, H, W, C)`` tensor, the quantized input included, so no
  activation is transposed or gathered out of order between layers,
  and a conv's row-major and K-major unfolds give one patch matrix;
* a deployment finds its warm engine by its cached fingerprint, so a
  repeat item never re-hashes the network, while
  ``clear_engine_cache()`` still forces a fresh compile.
"""

import hashlib
import pickle
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import AcceleratorConfig, compile_network, create_engine
from repro.core.calibration import DEFAULT_LATENCY
from repro.core.engine import cache, vectorized
from repro.core.engine.cache import (
    clear_engine_cache,
    content_key,
    engine_cache_stats,
)
from repro.core.gemm import FLOAT32_EXACT, GemmWeights
from repro.models import performance_network
from repro.nn import functional as F
from repro.runtime import Deployment, WorkItem
from repro.runtime.work import execute_item
from repro.snn.spec import (
    FlattenSpec,
    QuantConvSpec,
    QuantizedNetwork,
    QuantLinearSpec,
    requantize,
)

from test_engine_equivalence import CHANNEL_STACKS, LAYER_STACKS, live_network

WEIGHT_BITS = 8


def extreme_network(num_steps: int) -> QuantizedNetwork:
    """conv(3->4, 5x5) -> flatten -> linear(3), weights at the extremes.

    Conv channels: all ``top - 1`` (odd products, so a rounded float32
    sum cannot hide), all ``-top``, all ``+top``, and a ``±top``
    checkerboard.  Unit scales saturate every positive accumulator at
    ``2**T - 1``, so the linear layer sees worst-case inputs as well.
    """
    top = 1 << (WEIGHT_BITS - 1)
    conv_w = np.empty((4, 3, 5, 5), dtype=np.int64)
    conv_w[0], conv_w[1], conv_w[2] = top - 1, -top, top
    conv_w[3] = np.where(np.indices((3, 5, 5)).sum(axis=0) % 2, top, -top)
    conv = QuantConvSpec(
        weights=conv_w, bias=np.zeros(4, dtype=np.int64),
        scales=np.ones(4), stride=1, padding=0,
        in_shape=(3, 10, 10), out_shape=(4, 6, 6))
    linear_w = np.empty((3, 144), dtype=np.int64)
    linear_w[0], linear_w[1] = top - 1, -top
    linear_w[2] = np.where(np.arange(144) % 3, top, -top)
    linear = QuantLinearSpec(
        weights=linear_w, bias=np.zeros(3, dtype=np.int64),
        scales=np.ones(3), is_output=True, in_features=144,
        out_features=3)
    return QuantizedNetwork(
        layers=(conv, FlattenSpec(in_shape=(4, 6, 6), out_features=144),
                linear),
        num_steps=num_steps, weight_bits=WEIGHT_BITS,
        input_shape=(3, 10, 10), num_classes=3)


def exact_logits(network: QuantizedNetwork,
                 images: np.ndarray) -> np.ndarray:
    """The network's logits in pure int64 arithmetic (no floats)."""
    t = network.num_steps
    top = (1 << t) - 1
    x = np.clip(np.floor(images * (1 << t)), 0, top).astype(np.int64)
    for spec in network.layers:
        if spec.kind == "conv":
            cols = F.im2col(x, spec.kernel_size, spec.stride, spec.padding)
            acc = cols @ spec.weights.reshape(len(spec.weights), -1).T
            c_out, h_out, w_out = spec.out_shape
            acc = acc.transpose(0, 2, 1).reshape(-1, c_out, h_out, w_out)
            x = requantize(acc + spec.bias.reshape(1, -1, 1, 1),
                           spec.scales, t, channel_axis=1)
        elif spec.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:
            x = x @ spec.weights.T + spec.bias
    return x


def worst_case_images() -> np.ndarray:
    """A dense batch (every activation at 2**T - 1) plus a structured
    sparse one (4 of 6 patch rows, 40 of 75 taps live)."""
    dense = np.ones((2, 3, 10, 10))
    sparse = np.zeros((2, 3, 10, 10))
    sparse[:, :2, :4, :] = 1.0           # 4 of 6 patch rows, 40 of 75 taps
    return np.concatenate([dense, sparse])


def run_all(network, images):
    """Logits per backend, at the worst-case magnitudes."""
    compiled = compile_network(network,
                               AcceleratorConfig.for_network(network))
    engines = [create_engine(backend, compiled)
               for backend in ("reference", "vectorized")]
    return compiled, {engine.name: engine.run_batch(images)[0]
                      for engine in engines}


class TestExactGemm:
    def test_float32_chunks_exact_at_the_bound(self):
        """The GEMM alone: odd worst-case products over several chunks."""
        t = 12
        top = 1 << (WEIGHT_BITS - 1)
        weights = np.array([[top - 1] * 75, [-top] * 75, [top] * 75])
        gemm = GemmWeights(weights, t)
        cols = np.full((5, 75), (1 << t) - 1, dtype=np.int64)
        got = gemm.matmul(cols)
        assert gemm.dtype is np.float32
        assert gemm.chunk == FLOAT32_EXACT // (((1 << t) - 1) * top)
        assert 75 > 2 * gemm.chunk       # at least three chunks
        assert abs(int(got[0, 0])) > FLOAT32_EXACT
        np.testing.assert_array_equal(got, cols @ weights.T)

    def test_worst_case_layers_match_int64_and_reference(self):
        network = extreme_network(num_steps=12)
        images = worst_case_images()
        compiled, logits = run_all(network, images)
        want = exact_logits(network, images)
        assert np.abs(want).max() > FLOAT32_EXACT
        for program in compiled.programs:
            if program.gemm is not None:
                assert program.gemm.dtype is np.float32
                k = program.gemm.matrix.shape[1]
                assert k > program.gemm.chunk  # K spans >= 2 chunks
        for backend, got in logits.items():
            np.testing.assert_array_equal(got, want, err_msg=backend)

    def test_high_t_layer_takes_the_float64_path(self):
        """T=22: one product already exceeds 2**24, so no float32 chunk
        is exact and the layer keeps float64 — still bit-exact."""
        network = extreme_network(num_steps=22)
        images = worst_case_images()
        compiled, logits = run_all(network, images)
        for program in compiled.programs:
            if program.gemm is not None:
                assert program.gemm.chunk == 0
                assert program.gemm.dtype is np.float64
        want = exact_logits(network, images)
        for backend, got in logits.items():
            np.testing.assert_array_equal(got, want, err_msg=backend)

    def test_matrix_is_built_once_and_shared(self, rng):
        net = performance_network(
            [("conv", 4, 3, 1, 1), ("flatten",), ("linear", 5)],
            input_shape=(1, 8, 8), num_steps=3,
            seed=int(rng.integers(1 << 16)))
        compiled = compile_network(net, AcceleratorConfig.for_network(net))
        gemms = [p.gemm for p in compiled.programs if p.gemm is not None]
        assert all(g._matrix is None for g in gemms)  # lazy: not at compile
        images = rng.random((3,) + net.input_shape)
        create_engine("vectorized", compiled).run_batch(images)
        matrices = [g.matrix for g in gemms]
        create_engine("vectorized", compiled).run_batch(images)
        assert all(g.matrix is m for g, m in zip(gemms, matrices))

    def test_concurrent_first_use_builds_one_matrix(self, monkeypatch):
        """Thread lanes share a compiled model: racing first batches must
        build (and hold) one matrix, not one per thread."""
        gemm = GemmWeights(np.ones((64, 256), dtype=np.int8), 6)
        builds = []
        real_build = gemm._build

        def slow_build():                # widen the race window
            builds.append(1)
            time.sleep(0.01)
            return real_build()

        monkeypatch.setattr(gemm, "_build", slow_build)
        seen = []
        start = threading.Barrier(16)

        def first_use():
            start.wait(timeout=10)
            seen.append(gemm.matrix)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use)
                       for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1 and len(seen) == 16
        assert all(matrix is seen[0] for matrix in seen)


class TestChannelLast:
    def test_conv_and_pool_inputs_are_contiguous_channel_last(self, rng):
        """Every conv and pool reads a C-contiguous ``(N, H, W, C)``
        tensor, the quantized input included.  Gained scales and a
        nonnegative first conv keep every image live up to the last
        conv, so each kernel reads the whole batch."""
        net = live_network(
            [("conv", 4, 3, 2, 0), ("pool", 2), ("conv", 5, 1, 1, 0),
             ("flatten",), ("linear", 5)],
            (3, 11, 11), 4, seed=int(rng.integers(1 << 16)))
        first = net.layers[0]
        net = replace(net, layers=(
            replace(first, weights=np.abs(first.weights)),) + net.layers[1:])
        engine = create_engine(
            "vectorized",
            compile_network(net, AcceleratorConfig.for_network(net)))
        engine._tails  # built once per engine; their runs are not seen
        seen = []
        for name in ("_conv_out", "_pool_out"):
            def record(program, x, _run=getattr(engine, name)):
                seen.append((program.spec.in_shape, x))
                return _run(program, x)

            setattr(engine, name, record)
        engine.run_merged(rng.random((3,) + net.input_shape))
        assert [shape for shape, _ in seen] == [
            (3, 11, 11), (4, 5, 5), (4, 2, 2)]
        for (c, h, w), x in seen:
            assert x.shape == (3, h, w, c)
            assert x.flags.c_contiguous


class TestUnfold:
    @pytest.mark.parametrize("c_in", [1, 3, 6, 64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("kernel_size", [(3, 3), (2, 3)])
    def test_both_copy_orders_give_one_patch_matrix(
            self, rng, c_in, stride, padding, kernel_size):
        """Row-major and K-major unfolds of one padded channel-last
        batch: the same ``(M, kr * kc * C_in)`` tap-major columns, equal
        to stacking every tap's strided slice."""
        n, h, w = 2, 7, 9
        kr, kc = kernel_size
        h_out = (h + 2 * padding - kr) // stride + 1
        w_out = (w + 2 * padding - kc) // stride + 1
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in),
                          dtype=np.float32)
        padded[:, padding:padding + h, padding:padding + w] = \
            rng.integers(0, 16, size=(n, h, w, c_in))
        taps = np.stack([padded[:, i:i + stride * h_out:stride,
                                j:j + stride * w_out:stride]
                         for i in range(kr) for j in range(kc)], axis=3)
        want = taps.reshape(n * h_out * w_out, kr * kc * c_in)
        for k_major in (False, True):
            cols = vectorized._unfold(padded, kernel_size, stride, h_out,
                                      w_out, k_major=k_major)
            assert cols.shape == want.shape
            np.testing.assert_array_equal(cols, want)

    def test_equivalence_stacks_take_both_copy_orders(self, rng,
                                                      monkeypatch):
        """The equivalence suite's networks, built as it builds them,
        unfold with both copy orders: K-major where an output row is
        longer than a kernel row's ``kc * C_in`` values, row-major
        elsewhere."""
        orders = []
        real = vectorized._unfold

        def spy(padded, kernel_size, stride, h_out, w_out, k_major):
            assert k_major == (w_out > kernel_size[1] * padded.shape[3])
            orders.append(k_major)
            return real(padded, kernel_size, stride, h_out, w_out,
                        k_major=k_major)

        monkeypatch.setattr(vectorized, "_unfold", spy)
        nets = [performance_network(stack, input_shape=(1, 10, 10),
                                    num_steps=3, seed=int(rng.integers(99)))
                for stack in LAYER_STACKS.values()]
        nets += [live_network(stack, (3, 11, 11), 3,
                              seed=int(rng.integers(99)))
                 for stack in CHANNEL_STACKS.values()]
        for net in nets:
            create_engine("vectorized", compile_network(
                net, AcceleratorConfig.for_network(net))).run_batch(
                    rng.random((3,) + net.input_shape))
        assert set(orders) == {False, True}


def small_deployment(rng) -> Deployment:
    net = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 5)],
        input_shape=(1, 8, 8), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    return Deployment(network=net, config=AcceleratorConfig.for_network(net))


class TestWarmLookup:
    def test_repeat_item_does_not_rehash(self, rng, monkeypatch):
        clear_engine_cache()
        deployment = small_deployment(rng)
        item = WorkItem(item_id=0, deployment=0,
                        images=rng.random((2,) + deployment.network
                                          .input_shape))
        first = execute_item([deployment], item)

        def forbidden(*args, **kwargs):
            raise AssertionError("content_key called on a warm lookup")

        monkeypatch.setattr(cache, "content_key", forbidden)
        hits = engine_cache_stats()["engine_hits"]
        second = execute_item([deployment], item)
        assert engine_cache_stats()["engine_hits"] == hits + 1
        np.testing.assert_array_equal(first.logits, second.logits)

    def test_clear_engine_cache_forces_recompile(self, rng):
        clear_engine_cache()
        deployment = small_deployment(rng)
        item = WorkItem(item_id=0, deployment=0,
                        images=rng.random((2,) + deployment.network
                                          .input_shape))
        first = execute_item([deployment], item)
        engine = deployment.engine()
        clear_engine_cache()
        second = execute_item([deployment], item)
        assert engine_cache_stats()["compile_misses"] == 1
        assert deployment.engine() is not engine
        np.testing.assert_array_equal(first.logits, second.logits)

    def test_memoized_key_equals_a_from_scratch_hash(self, rng,
                                                     monkeypatch):
        """content_key keys the warm engine cache and the deployment
        fingerprint, so the memo must not change a byte of it — and a
        repeat key must not feed the network again."""
        deployment = small_deployment(rng)
        net, config = deployment.network, deployment.config
        digest = hashlib.sha256()
        for value in (net, config, DEFAULT_LATENCY):
            cache._feed(digest, value)
        assert content_key(net, config, DEFAULT_LATENCY) == \
            digest.hexdigest()

        fed = []
        real_feed = cache._feed
        monkeypatch.setattr(cache, "_feed", lambda d, value: (
            fed.append(value), real_feed(d, value)))
        assert content_key(net, config, DEFAULT_LATENCY) == \
            digest.hexdigest()
        assert all(value is not net for value in fed)
        assert any(value is config for value in fed)

    def test_spec_arrays_are_read_only(self, rng):
        """Also after a pickle round trip, as remote lanes receive them."""
        net = small_deployment(rng).network
        restored = pickle.loads(pickle.dumps(net))
        for spec in net.layers + restored.layers:
            if spec.kind in ("conv", "linear"):
                for array in (spec.weights, spec.bias, spec.scales):
                    with pytest.raises(ValueError):
                        array.flat[0] = 0
