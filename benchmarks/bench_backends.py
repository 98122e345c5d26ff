"""Backend benchmark — reference vs vectorized vs sparse wall clock.

Times batched LeNet-5 inference on the execution engines, checks the
backends agree on predictions and cycle totals while measuring, and
records the numbers (per-image seconds per backend, batch-size scaling of
the vectorized engine, and the headline speedups) to
``artifacts/bench_backends.json`` so the performance trajectory is
tracked across PRs.  Two gates:

* the vectorized engine must be >= 10x faster than reference for
  batched inference (in practice it lands orders of magnitude beyond);
* the sparse engine must beat the vectorized engine at the sparsest
  density bucket — event-style blob frames, the address-event workloads
  whose zeros it exists to skip — while staying bit-equal on logits
  *and* traces at **every** bucket.  The sparse-vs-vectorized race is
  reported per density bucket (~5 levels from near-silent to dense),
  giving the calibration gate in ``bench_autotune.py`` a trajectory to
  compare its measured crossover against; on dense buckets sparse only
  has to stay bit-equal (it runs a batch above its routing crossover on
  the vectorized kernels).
"""

import time
from pathlib import Path

import numpy as np

from repro.core import Accelerator, AcceleratorConfig
from repro.core.engine.calibrate import probe_batch
from repro.harness import Table

from benchmarks.conftest import FAST_MODE, print_table, write_artifact

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_backends.json")
REFERENCE_IMAGES = 2          # the reference engine is minutes/batch beyond this
BATCH_SIZES = (1, 8, 32, 128)
SPARSE_BATCH = 16 if FAST_MODE else 64
SPARSE_ROUNDS = 3 if FAST_MODE else 7
#: Realized input densities the sparse-vs-vectorized race is reported
#: at — near-silent through dense, matching bench_autotune's buckets.
DENSITY_BUCKETS = (0.02, 0.10, 0.25, 0.50, 0.90)


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_backend_comparison(runner) -> dict:
    """Measure both backends on LeNet-5; returns the JSON payload."""
    snn, _ = runner.lenet_snn(3)
    _, test = runner.mnist()
    config = AcceleratorConfig.for_network(snn.network, num_conv_units=2)

    reference = Accelerator(config, backend="reference")
    reference.deploy(snn, name="LeNet-5")
    vectorized = Accelerator(config, backend="vectorized")
    vectorized.deploy(snn, name="LeNet-5")

    ref_images = test.images[:REFERENCE_IMAGES]
    (ref_preds, ref_traces), ref_seconds = _time(
        lambda: reference.run(ref_images))
    ref_per_image = ref_seconds / len(ref_images)

    scaling = {}
    vec_per_image = None
    for batch in BATCH_SIZES:
        images = test.images[:min(batch, len(test.images))]
        (vec_preds, vec_traces), vec_seconds = _time(
            lambda: vectorized.run(images))
        scaling[len(images)] = vec_seconds / len(images)
        vec_per_image = scaling[len(images)]
        # Correctness rides along with every measurement.
        shared = min(len(images), len(ref_images))
        np.testing.assert_array_equal(vec_preds[:shared], ref_preds[:shared])
        for ref_trace, vec_trace in zip(ref_traces, vec_traces):
            assert ref_trace.total_cycles == vec_trace.total_cycles
            assert ref_trace.total_adder_ops == vec_trace.total_adder_ops

    speedup = ref_per_image / vec_per_image
    return {
        "workload": "LeNet-5, T=3, 2 conv units",
        "reference_s_per_image": ref_per_image,
        "vectorized_s_per_image_by_batch": scaling,
        "largest_batch_s_per_image": vec_per_image,
        "speedup_batched": speedup,
    }


def run_sparsity_comparison(runner, rng) -> dict:
    """Sparse vs vectorized across density buckets; returns JSON payload.

    One event-style probe batch per bucket (bright blobs on dark
    planes, the same generator calibration probes with), each backend
    timed best-of-rounds, bit-equality on logits and traces asserted at
    every bucket.
    """
    snn, _ = runner.lenet_snn(3)
    config = AcceleratorConfig.for_network(snn.network, num_conv_units=2)
    shape = tuple(snn.network.input_shape)

    engines = {}
    for backend in ("vectorized", "sparse"):
        accelerator = Accelerator(config, backend=backend)
        accelerator.deploy(snn, name="LeNet-5")
        engines[backend] = accelerator

    buckets = []
    for density in DENSITY_BUCKETS:
        images = probe_batch(shape, density, SPARSE_BATCH, rng)
        seconds = {}
        outputs = {}
        for backend, accelerator in engines.items():
            accelerator.run_logits(images)       # full-batch warm-up
            best = float("inf")
            for _ in range(SPARSE_ROUNDS):
                (logits, traces), elapsed = _time(
                    lambda: accelerator.run_logits(images))
                best = min(best, elapsed)
            seconds[backend] = best
            outputs[backend] = (logits, traces)

        # Bit-equality rides along with every bucket: logits AND traces.
        vec_logits, vec_traces = outputs["vectorized"]
        sp_logits, sp_traces = outputs["sparse"]
        np.testing.assert_array_equal(sp_logits, vec_logits)
        for vec_trace, sp_trace in zip(vec_traces, sp_traces):
            assert vec_trace.total_cycles == sp_trace.total_cycles
            assert vec_trace.total_adder_ops == sp_trace.total_adder_ops

        buckets.append({
            "target_density": density,
            "input_density": float(np.count_nonzero(images)
                                   / images.size),
            "vectorized_s_per_batch": seconds["vectorized"],
            "sparse_s_per_batch": seconds["sparse"],
            "speedup": seconds["vectorized"] / seconds["sparse"],
        })

    return {
        "workload": "LeNet-5, T=3, event blob frames per density bucket",
        "batch": SPARSE_BATCH,
        "buckets": buckets,
    }


def _render(results: dict) -> Table:
    table = Table(
        "Execution backends - wall clock per image (LeNet-5, T=3)",
        ["backend", "batch", "s/image", "speedup"])
    table.add_row("reference", REFERENCE_IMAGES,
                  f"{results['reference_s_per_image']:.3f}", "1.0x")
    for batch, per_image in results[
            "vectorized_s_per_image_by_batch"].items():
        table.add_row("vectorized", batch, f"{per_image:.5f}",
                      f"{results['reference_s_per_image'] / per_image:.0f}x")
    return table


def _render_sparse(results: dict) -> Table:
    table = Table(
        "Sparse engine - speedup vs vectorized by input density",
        ["density", "vectorized s", "sparse s", "speedup"])
    for bucket in results["buckets"]:
        table.add_row(f"{bucket['input_density']:.3f}",
                      f"{bucket['vectorized_s_per_batch']:.4f}",
                      f"{bucket['sparse_s_per_batch']:.4f}",
                      f"{bucket['speedup']:.2f}x")
    return table


def test_backend_speedup_report(runner, benchmark, rng):
    results = run_backend_comparison(runner)
    print_table(_render(results))
    sparse_results = run_sparsity_comparison(runner, rng)
    print_table(_render_sparse(sparse_results))

    write_artifact(RESULTS_PATH,
                   {**results, "sparse_by_density": sparse_results})

    assert results["speedup_batched"] >= 10.0, \
        "vectorized backend must be >= 10x faster for batched inference"
    assert sparse_results["buckets"][0]["speedup"] > 1.0, \
        "sparse backend must beat vectorized at the sparsest bucket"

    snn, _ = runner.lenet_snn(3)
    _, test = runner.mnist()
    vectorized = Accelerator(
        AcceleratorConfig.for_network(snn.network, num_conv_units=2),
        backend="vectorized")
    vectorized.deploy(snn, name="LeNet-5")
    images = test.images[rng.choice(len(test.images), size=32,
                                    replace=False)]
    benchmark.pedantic(lambda: vectorized.run(images),
                       rounds=3, iterations=1)


if __name__ == "__main__":
    from repro.harness import ExperimentRunner

    main_runner = ExperimentRunner()
    bench_results = run_backend_comparison(main_runner)
    print(_render(bench_results).render())
    sparse_bench = run_sparsity_comparison(
        main_runner, np.random.default_rng(0))
    print(_render_sparse(sparse_bench).render())
    write_artifact(RESULTS_PATH,
                   {**bench_results, "sparse_by_density": sparse_bench})
