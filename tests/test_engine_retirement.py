"""Silent images leave the batch: the vectorized engine retires each
image at the first layer where it reads no spike.

A retired image takes its logits and its later adder counters from that
layer's *tail*, the rest of the network run once on the layer's silent
output, and every later kernel runs on the surviving rows only.  The
batch here mixes frames silent at the input, frames that reach conv1
but read nothing at pool1, and live frames, under nonzero biases so the
tails carry nonzero logits and adder counters.  Logits and every trace
field must equal ``reference``, and a spy on the kernels pins which
rows each one receives: exactly the images whose reference trace shows
a spike read at every layer so far, in batch order, each row equal to
that image's kernel input when it runs alone.  Threads racing a fresh
engine's first batch, which builds the tails, all get the serial
result.
"""

import sys
import threading
from dataclasses import replace

import numpy as np

from repro.core import AcceleratorConfig
from repro.core.engine import create_engine, warm_compile
from repro.models import performance_network
from test_engine_equivalence import assert_traces_identical

KERNELS = ("_conv_out", "_pool_out", "_linear_out")


def biased_network(seed: int):
    """A live conv-pool-conv-fc-fc stack whose conv1 biases sit below
    any single-spike accumulator, while conv2 and fc1 biases requantize
    to positive rows on some channels and the classifier biases are
    nonzero: a faint frame dies after conv1, and every tail past it is
    nonzero."""
    net = performance_network(
        [("conv", 4, 3, 1, 1), ("pool", 2), ("conv", 6, 3, 1, 0),
         ("flatten",), ("linear", 8), ("linear", 5)],
        input_shape=(1, 10, 10), num_steps=4, seed=seed)
    rng = np.random.default_rng(seed)
    top = (1 << net.num_steps) - 1
    layers = []
    for index, spec in enumerate(net.layers):
        if spec.kind not in ("conv", "linear"):
            layers.append(spec)
            continue
        if index == 0:
            bias = np.full(spec.bias.shape,
                           -int(np.abs(spec.weights).max()) - 1)
        elif spec.kind == "linear" and spec.is_output:
            bias = rng.integers(-40, 41, size=spec.bias.shape)
            bias[bias == 0] = 7
        else:
            levels = np.resize([top // 2, 0, -top], spec.bias.shape)
            bias = np.rint(levels / (spec.scales * 8.0))
        layers.append(replace(
            spec, bias=bias.astype(np.int64),
            scales=spec.scales if spec.kind == "linear" and spec.is_output
            else spec.scales * 8.0))
    return replace(net, layers=tuple(layers))


def spied_engine(compiled):
    """A vectorized engine (tails built) and the list its kernels append
    ``(layer name, input rows)`` to."""
    engine = create_engine("vectorized", compiled)
    engine._tails
    calls = []
    for name in KERNELS:
        def record(program, x, _run=getattr(engine, name)):
            calls.append((program.name, np.array(x)))
            return _run(program, x)

        setattr(engine, name, record)
    return engine, calls


def test_mixed_batch_retires_each_image_at_its_first_silent_layer(rng):
    net = biased_network(int(rng.integers(1 << 16)))
    compiled = warm_compile(net, AcceleratorConfig.for_network(net))
    images = rng.uniform(0.3, 1.0, size=(7,) + net.input_shape)
    images[[1, 4]] = 0.0                      # silent at the input
    for frame, (y, x) in ((2, (5, 5)), (5, (0, 9))):
        images[frame] = 0.0                   # one faint spike: conv1
        images[frame, 0, y, x] = 1.5 / 16     # reads it, writes nothing

    ref_logits, ref_traces = create_engine(
        "reference", compiled).run_batch(images)
    engine, calls = spied_engine(compiled)
    logits, traces = engine.run_batch(images)
    np.testing.assert_array_equal(logits, ref_logits)
    for ref_trace, trace in zip(ref_traces, traces):
        assert_traces_identical(ref_trace, trace)

    # The reference trace shows where each image reads no spike.
    names = [layer.name for layer in ref_traces[0].layers]
    kinds = [layer.kind for layer in ref_traces[0].layers]
    reads = np.array([[layer.adder_ops > 0 for layer in trace.layers]
                      for trace in ref_traces])
    reads[:, [k == "flatten" for k in kinds]] = True
    reached = np.logical_and.accumulate(reads, axis=1)
    first_silent = [int(np.argmin(row)) if not row.all() else None
                    for row in reached]
    assert first_silent[1] == first_silent[4] == 0
    assert first_silent[2] == first_silent[5] == 1
    assert first_silent[0] is None and first_silent[3] is None
    # Nonzero tails: the retired frames' logits and later counters.
    for frame, column in ((1, 0), (2, 1)):
        assert ref_logits[frame].any()
        assert any(layer.adder_ops for layer in
                   ref_traces[frame].layers[column + 1:])

    alone = []
    for image in images:
        single, single_calls = spied_engine(compiled)
        single.run_batch(image[None])
        alone.append(dict(single_calls))
    want = [(name, np.concatenate(
                [alone[i][name] for i in np.flatnonzero(reached[:, column])]))
            for column, (name, kind) in enumerate(zip(names, kinds))
            if kind != "flatten" and reached[:, column].any()]
    assert [name for name, _ in calls] == [name for name, _ in want]
    for (name, got), (_, rows) in zip(calls, want):
        np.testing.assert_array_equal(got, rows, err_msg=name)


def test_all_silent_batch_calls_no_kernel(rng):
    net = biased_network(int(rng.integers(1 << 16)))
    compiled = warm_compile(net, AcceleratorConfig.for_network(net))
    images = np.zeros((3,) + net.input_shape)
    ref_logits, ref_traces = create_engine(
        "reference", compiled).run_batch(images)
    engine, calls = spied_engine(compiled)
    logits, traces = engine.run_batch(images)
    assert calls == []
    np.testing.assert_array_equal(logits, ref_logits)
    assert ref_logits.any()
    for ref_trace, trace in zip(ref_traces, traces):
        assert_traces_identical(ref_trace, trace)


def test_threads_racing_the_first_batch_agree(rng):
    net = biased_network(int(rng.integers(1 << 16)))
    compiled = warm_compile(net, AcceleratorConfig.for_network(net))
    images = rng.uniform(0.3, 1.0, size=(4,) + net.input_shape)
    images[1] = 0.0
    want_logits, want = create_engine(
        "vectorized", compiled)._run_batch_trace(images)
    engine = create_engine("vectorized", compiled)
    start = threading.Barrier(8)
    results = []

    def first_batch():
        start.wait(timeout=10)
        results.append(engine._run_batch_trace(images))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_batch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for logits, batch in results:
        np.testing.assert_array_equal(logits, want_logits)
        np.testing.assert_array_equal(batch.adder_ops, want.adder_ops)
