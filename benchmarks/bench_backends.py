"""Backend benchmark — reference vs vectorized wall clock.

Times batched LeNet-5 inference on the execution engines, checks the
backends agree on predictions and cycle totals while measuring, and
records the numbers (per-image seconds per backend, batch-size scaling of
the vectorized engine, and the headline speedups) to
``artifacts/bench_backends.json`` so the performance trajectory is
tracked over time.  One gate: the vectorized engine must be >= 10x
faster than reference for batched inference (in practice it lands
orders of magnitude beyond).  ``sparse`` is an alias of ``vectorized``;
its silent-frame skipping is gated in ``bench_autotune.py``.
"""

import time
from pathlib import Path

import numpy as np

from repro.core import Accelerator, AcceleratorConfig
from repro.harness import Table

from benchmarks.conftest import print_table, write_artifact

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_backends.json")
REFERENCE_IMAGES = 2          # the reference engine is minutes/batch beyond this
BATCH_SIZES = (1, 8, 32, 128)


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


def test_backend_speedup_report(runner, benchmark, rng):
    results = run_backend_comparison(runner)
    print_table(_render(results))
    write_artifact(RESULTS_PATH, results)

    assert results["speedup_batched"] >= 10.0, \
        "vectorized backend must be >= 10x faster for batched inference"

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
    write_artifact(RESULTS_PATH, bench_results)
