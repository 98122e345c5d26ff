"""Autotune benchmark — the calibration subsystem's two hard gates.

Measured, not guessed: this benchmark calibrates the LeNet deployment
(:func:`repro.core.engine.calibrate.calibrate_deployment`), then holds
the resulting table to its promises and records the evidence in
``artifacts/bench_autotune.json``:

* **Density routing** — at every density bucket from near-silent to
  dense, the ``sparse`` backend (which runs each batch on its sparse
  hooks or, above the calibrated crossover, on the ``vectorized``
  kernels) must land within 5 % of the *better* of the two fixed paths
  — ``vectorized`` and ``sparse`` with routing disabled — and at the
  sparsest and densest buckets it must be strictly faster than the
  *worse* one — i.e. routing by the table picks the winning kernels
  where the choice matters.  Logits and traces are asserted
  bit-identical across all three at every bucket.
* **Saturation-aware sharding** — on a cheap-per-image event workload
  (mostly silent frames on the sparse backend), a
  ``SweepDriver(saturate=True)`` run on 2 process lanes must beat a
  fixed 4-image shard size (fine enough to be harmless on dense
  ~ms-per-image work, but once the per-image cost collapses on a
  mostly-silent stream the per-unit dispatch tax dominates every lane)
  by >= 1.1x wall clock with bit-identical merged predictions and
  trace counters.  The two
  configurations are swept in paired alternating rounds and compared by
  median per-round ratio — forked-lane wall clocks are the noisiest
  numbers in the suite.  Requires >= 2 cores; skipped (pytest) or
  omitted (``__main__``) below that.
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import AcceleratorConfig
from repro.core.engine import create_engine, warm_engine
from repro.core.engine.calibrate import calibrate_deployment, probe_batch
from repro.harness import Table
from repro.harness.sweep import SweepDriver, SweepTask
from repro.telemetry import get_registry

from benchmarks.conftest import (
    FAST_MODE,
    multicore,
    print_table,
    skip_unless_multicore,
    write_artifact,
)

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_autotune.json")
DENSITY_BUCKETS = (0.02, 0.10, 0.25, 0.50, 0.90)
BATCH = 16 if FAST_MODE else 48
ROUNDS = 12 if FAST_MODE else 18
#: Re-measures allowed per bucket before its gate verdict sticks — a
#: mis-route fails all of them; a noisy neighbour usually only one.
MEASURE_ATTEMPTS = 3
#: Saturated-sharding workload: mostly silent event frames (cheap per
#: image) so the per-unit dispatch tax dominates a fixed-shard run.
SHARD_IMAGES = 384 if FAST_MODE else 1024
SHARD_SILENT_FRAC = 0.75
SHARD_DENSITY = 0.03
#: The fixed baseline: a shard size that amortizes fine on dense
#: ~ms-per-image work but leaves lanes paying more dispatch than
#: compute once the per-image cost collapses on an event stream —
#: exactly the blind spot saturation-aware sizing exists to close.
SHARD_FIXED = 4
SHARD_GATE = 1.1
#: Paired fixed-vs-saturated sweep rounds; the gate reads the median
#: per-round wall ratio.
SHARD_SWEEP_ROUNDS = 5


def _best_time(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _calibrated_lenet(runner):
    """LeNet + the config every sweep/serve entry point deploys it under,
    with its calibration table measured (or reloaded) and installed."""
    snn, _ = runner.lenet_snn(3)
    config = AcceleratorConfig.for_network(snn.network)
    table, cached = calibrate_deployment(snn.network, config,
                                         store=runner.store)
    return snn, config, table, cached


def _routed_total(backend: str) -> float:
    return get_registry().counter(
        "engine_auto_routed_total",
        labelnames=("backend",)).labels(backend=backend).value


def run_sparse_routing(runner, rng) -> dict:
    """Gate 1: routed sparse must track the better fixed path per bucket."""
    snn, config, table, cached = _calibrated_lenet(runner)
    # The warm sparse engine: install_table refreshed its thresholds in
    # place.  Its dense batches run on the very vectorized instance
    # raced here, so the race below compares routing overhead, not
    # engine-instance luck.  The unrouted engine keeps the calibrated
    # per-hook fallbacks, routing disabled.
    sparse = warm_engine(snn.network, config, "sparse")
    unrouted = create_engine("sparse", sparse.compiled)
    unrouted.apply_thresholds(replace(sparse.thresholds,
                                      route_density=1.0))
    engines = {"vectorized": sparse._dense,
               "unrouted": unrouted,
               "sparse": sparse}
    fixed = ("vectorized", "unrouted")

    # Every ordering of the three engines, cycled across rounds: a
    # fixed or merely rotated order hands some engine a permanently
    # warm predecessor (e.g. vectorized always running right after
    # sparse's vectorized delegate) and biases the race by 5-15% on a
    # busy host.  Paired per-round ratios + median (below) then cancel
    # clock drift that spans rounds.
    orders = list(itertools.permutations(engines))

    def measure(images) -> dict:
        rounds = []
        for engine in engines.values():
            engine.run_batch(images)              # full-batch warm-up
        for index in range(ROUNDS):
            row = {}
            for name in orders[index % len(orders)]:
                engine = engines[name]
                row[name] = _best_time(
                    lambda: engine.run_batch(images), rounds=1)
            rounds.append(row)
        seconds = {name: float(np.median([row[name] for row in rounds]))
                   for name in engines}
        return {
            "vectorized_s": seconds["vectorized"],
            "unrouted_s": seconds["unrouted"],
            "sparse_s": seconds["sparse"],
            "sparse_vs_best": float(np.median(
                [min(row[name] for name in fixed) / row["sparse"]
                 for row in rounds])),
            "sparse_vs_worst": float(np.median(
                [max(row[name] for name in fixed) / row["sparse"]
                 for row in rounds])),
            "sparse_over_vectorized": float(np.median(
                [row["sparse"] / row["vectorized"] for row in rounds])),
        }

    buckets = []
    for position, density in enumerate(DENSITY_BUCKETS):
        images = probe_batch(snn.network.input_shape, density, BATCH, rng)
        extreme = position in (0, len(DENSITY_BUCKETS) - 1)
        # Routing is deterministic; the race against a noisy-neighbour
        # clock is not.  A failed attempt re-rolls the measurement (a
        # real mis-route keeps failing every attempt), bounded at 3.
        for attempt in range(1, MEASURE_ATTEMPTS + 1):
            stats = measure(images)
            if stats["sparse_vs_best"] >= 0.95 and (
                    not extreme or stats["sparse_vs_worst"] > 1.0):
                break

        before = _routed_total("vectorized")
        outputs = {name: engine.run_batch(images)
                   for name, engine in engines.items()}
        routed = ("vectorized" if _routed_total("vectorized") > before
                  else "sparse")
        # Bit-identity across all three paths, logits AND traces.
        ref_logits, ref_traces = outputs["vectorized"]
        for name in ("unrouted", "sparse"):
            logits, traces = outputs[name]
            np.testing.assert_array_equal(logits, ref_logits)
            for trace, ref in zip(traces, ref_traces):
                assert trace.total_cycles == ref.total_cycles, name
                assert trace.total_adder_ops == ref.total_adder_ops, name

        buckets.append({
            "target_density": density,
            "input_density": float(np.count_nonzero(images)
                                   / images.size),
            "routed": routed,
            "attempts": attempt,
            **stats,
        })

    # The gates: within 5% of the better path everywhere; strictly
    # ahead of the worse one where the routing choice matters most.
    for bucket in buckets:
        assert bucket["sparse_vs_best"] >= 0.95, (
            f"sparse must be within 5% of the better fixed path at "
            f"density {bucket['input_density']:.3f}: {bucket}")
    for bucket in (buckets[0], buckets[-1]):
        assert bucket["sparse_vs_worst"] > 1.0, (
            f"sparse must beat the worse fixed path at the extreme "
            f"density {bucket['input_density']:.3f}: {bucket}")

    return {
        "workload": "LeNet-5, T=3, event blob frames per density bucket",
        "batch": BATCH,
        "calibration_cached": cached,
        "backend_crossover": table.backend_crossover,
        "hook_crossovers": table.hook_crossovers,
        "coo_ratio": table.coo_ratio,
        "buckets": buckets,
    }


def _shard_workload(shape, rng) -> np.ndarray:
    return probe_batch(shape, SHARD_DENSITY, SHARD_IMAGES, rng,
                       silent_frac=SHARD_SILENT_FRAC)


def run_saturated_sharding(runner, rng) -> dict:
    """Gate 2: saturate=True must beat fixed shards on 2 process lanes."""
    snn, config, table, _ = _calibrated_lenet(runner)
    images = _shard_workload(snn.network.input_shape, rng)
    labels = np.zeros(len(images), dtype=np.int64)
    # Warm the parent-side compile so forked lanes inherit it (and the
    # saturating probe measures compute, not compilation — 16 images is
    # the probe's own batch size, so its buffers are warm too).
    warm_engine(snn.network, config, "sparse").run_batch(images[:16])

    def sweep(saturate: bool) -> tuple:
        task = SweepTask(key="saturate-bench", network=snn.network,
                         config=config, images=images, labels=labels,
                         backend="sparse")
        driver = SweepDriver(workers=2, shard_size=SHARD_FIXED,
                             saturate=saturate)
        outcome = driver.run([task])["saturate-bench"]
        return outcome, driver.last_summary

    # Paired rounds, alternating order: forked-lane wall clocks drift
    # on phases longer than a whole best-of-N block, so timing the two
    # configurations back to back and taking the median per-round
    # ratio is the only comparison the host cannot skew.
    fixed_walls, sat_walls, ratios = [], [], []
    for round_index in range(SHARD_SWEEP_ROUNDS):
        configs = [False, True] if round_index % 2 == 0 else [True, False]
        walls = {}
        for saturate in configs:
            outcome, summary = sweep(saturate)
            walls[saturate] = summary.wall_s
            if saturate:
                sat_outcome, sat_summary = outcome, summary
            else:
                fixed_outcome, fixed_summary = outcome, summary
        fixed_walls.append(walls[False])
        sat_walls.append(walls[True])
        ratios.append(walls[False] / walls[True])

    # Shard sizing is pure scheduling: the merge must not notice it.
    np.testing.assert_array_equal(sat_outcome.predictions,
                                  fixed_outcome.predictions)
    assert (sat_outcome.trace.total_cycles
            == fixed_outcome.trace.total_cycles)
    assert (sat_outcome.trace.total_adder_ops
            == fixed_outcome.trace.total_adder_ops)

    sat_size = sat_summary.task_shard_sizes["saturate-bench"]
    speedup = float(np.median(ratios))
    results = {
        "workload": (f"LeNet-5 sparse backend, {SHARD_IMAGES} event "
                     f"frames ({SHARD_SILENT_FRAC:.0%} silent, density "
                     f"{SHARD_DENSITY})"),
        "lanes": 2,
        "fixed_shard_size": SHARD_FIXED,
        "saturated_shard_size": sat_size,
        "dispatch_cost_s": table.dispatch_cost_s,
        "wall_fixed_s": float(np.median(fixed_walls)),
        "wall_saturated_s": float(np.median(sat_walls)),
        "speedup": speedup,
    }
    assert sat_size > SHARD_FIXED, (
        f"saturating sizer should grow shards on this workload, "
        f"chose {sat_size}")
    assert speedup >= SHARD_GATE, (
        f"saturated sharding must be >= {SHARD_GATE}x the fixed-shard "
        f"sweep, got {speedup:.2f}x: {results}")
    return results


def _render_routing(results: dict) -> Table:
    table = Table(
        "backend=sparse - batch routing vs fixed paths (LeNet-5)",
        ["density", "routed", "vec s", "unrouted s", "sparse s",
         "vs best", "sparse/vec"])
    for bucket in results["buckets"]:
        table.add_row(f"{bucket['input_density']:.3f}", bucket["routed"],
                      f"{bucket['vectorized_s']:.4f}",
                      f"{bucket['unrouted_s']:.4f}",
                      f"{bucket['sparse_s']:.4f}",
                      f"{bucket['sparse_vs_best']:.2f}x",
                      f"{bucket['sparse_over_vectorized']:.2f}")
    return table


def _render_sharding(results: dict) -> Table:
    table = Table("Saturation-aware sharding - 2 process lanes",
                  ["sharding", "images/unit", "wall s", "speedup"])
    table.add_row("fixed", results["fixed_shard_size"],
                  f"{results['wall_fixed_s']:.2f}", "1.0x")
    table.add_row("saturated", results["saturated_shard_size"],
                  f"{results['wall_saturated_s']:.2f}",
                  f"{results['speedup']:.2f}x")
    return table


def test_autotune_report(runner, rng):
    routing = run_sparse_routing(runner, rng)
    print_table(_render_routing(routing))
    skip_unless_multicore(2, "saturated sharding gate")
    sharding = run_saturated_sharding(runner, rng)
    print_table(_render_sharding(sharding))
    write_artifact(RESULTS_PATH,
                   {"routing": routing, "sharding": sharding})


if __name__ == "__main__":
    from repro.harness import ExperimentRunner

    main_runner = ExperimentRunner()
    main_rng = np.random.default_rng(0)
    routing_results = run_sparse_routing(main_runner, main_rng)
    print(_render_routing(routing_results).render())
    payload = {"routing": routing_results}
    if multicore(2):
        sharding_results = run_saturated_sharding(main_runner, main_rng)
        print(_render_sharding(sharding_results).render())
        payload["sharding"] = sharding_results
    else:
        print("single core visible: saturated sharding gate omitted")
    write_artifact(RESULTS_PATH, payload)
