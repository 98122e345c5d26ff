"""Autotune benchmark — silent-frame skipping and saturation-aware sharding.

Measured, not guessed: this benchmark holds the LeNet deployment to two
promises and records the evidence in ``artifacts/bench_autotune.json``:

* **Silent frames** — the vectorized engine (``sparse`` is an alias)
  runs each layer's kernel only on the images with a spike it reads.
  At every density bucket, from near-silent to dense, each batch holds
  event frames of which at least half are silent (three quarters at the
  sparsest, the event-stream prior) or, where the density leaves no
  room for that, as many as it allows, and the whole batch's logits
  and per-image trace rows must equal those of its live frames and its
  silent frames run as two separate batches.  At the sparsest bucket
  the mixed batch must also run strictly faster than an equal-size
  batch whose frames are all live at the same per-frame density —
  i.e. silent frames really cost less than live ones.
* **Saturation-aware sharding** — on a cheap-per-image event workload
  (mostly silent frames on the sparse backend), a
  ``SweepDriver(saturate=True)`` run on 2 process lanes must beat a
  fixed 4-image shard size (fine enough to be harmless on dense
  ~ms-per-image work, but once the per-image cost collapses on a
  mostly-silent stream the per-unit dispatch tax dominates every lane)
  by >= 1.1x wall clock with bit-identical merged predictions and
  trace counters.  The sizer measures per-image and per-batch cost
  itself and adds the fabric's fixed per-chunk dispatch cost
  (:data:`repro.runtime.DEFAULT_DISPATCH_COST_S`).  The two
  configurations are swept in paired alternating rounds and compared by
  median per-round ratio — forked-lane wall clocks are the noisiest
  numbers in the suite.  Requires >= 2 cores; skipped (pytest) or
  omitted (``__main__``) below that.
"""

import time
from pathlib import Path

import numpy as np

from repro.core import AcceleratorConfig
from repro.core.engine import warm_engine
from repro.core.engine.calibrate import event_silent_frac, probe_batch
from repro.harness import Table
from repro.harness.sweep import SweepDriver, SweepTask

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
#: Every bucket's batch has at least this share of silent frames where
#: its density allows.
MIN_SILENT_FRAC = 0.5
#: Re-measures allowed before the timing verdict sticks — a real
#: regression fails all of them; a noisy neighbour usually only one.
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


def _lenet(runner):
    """LeNet + the config every sweep/serve entry point deploys it under."""
    snn, _ = runner.lenet_snn(3)
    return snn, AcceleratorConfig.for_network(snn.network)


def _split_run(engine, images: np.ndarray) -> tuple:
    """Logits and per-image adder rows of ``images`` run as two batches,
    its live frames and its silent frames, put back in batch order."""
    silent = ~images.reshape(len(images), -1).any(axis=1)
    logits = adder_ops = None
    for part in (~silent, silent):
        if not part.any():
            continue
        part_logits, part_trace = engine.run_merged(images[part])
        if logits is None:
            logits = np.zeros((len(images),) + part_logits.shape[1:],
                              dtype=part_logits.dtype)
            adder_ops = np.zeros((len(images),)
                                 + part_trace.adder_ops.shape[1:],
                                 dtype=np.int64)
        logits[part] = part_logits
        adder_ops[part] = part_trace.adder_ops
    return logits, adder_ops


def _race(engine, batches: dict) -> tuple[dict, list]:
    """Median seconds per batch, and the per-round rows they come from;
    every round times each batch once, the order alternating, so the
    caller can compare batches by per-round ratios."""
    names = list(batches)
    for images in batches.values():
        engine.run_merged(images)                 # full-batch warm-up
    rounds = []
    for index in range(ROUNDS):
        row = {}
        for name in (names if index % 2 == 0 else names[::-1]):
            row[name] = _best_time(
                lambda: engine.run_merged(batches[name]), rounds=1)
        rounds.append(row)
    return {name: float(np.median([row[name] for row in rounds]))
            for name in names}, rounds


def run_silent_frames(runner, rng) -> dict:
    """Gate 1: silent frames are exact to split off and cheaper to run."""
    snn, config = _lenet(runner)
    engine = warm_engine(snn.network, config, "sparse")
    shape = tuple(snn.network.input_shape)

    buckets = []
    for position, density in enumerate(DENSITY_BUCKETS):
        silent_frac = min(max(event_silent_frac(density),
                              MIN_SILENT_FRAC), 1.0 - density)
        images = probe_batch(shape, density, BATCH, rng,
                             silent_frac=silent_frac)
        silent = ~images.reshape(BATCH, -1).any(axis=1)
        assert silent.any() and not silent.all(), density

        # Exactness: the mixed batch equals its two halves run apart
        # (the other trace columns are data-independent charges).
        logits, trace = engine.run_merged(images)
        split_logits, split_adds = _split_run(engine, images)
        np.testing.assert_array_equal(logits, split_logits)
        np.testing.assert_array_equal(trace.adder_ops, split_adds)

        bucket = {
            "target_density": density,
            "input_density": float(np.count_nonzero(images)
                                   / images.size),
            "silent_frames": int(silent.sum()),
        }
        if position == 0:
            # Speed: the same live frames' density, none of them silent.
            live = probe_batch(shape, density / (1.0 - silent_frac),
                               BATCH, rng, silent_frac=0.0)
            assert live.reshape(BATCH, -1).any(axis=1).all()
            for attempt in range(1, MEASURE_ATTEMPTS + 1):
                seconds, rounds = _race(engine, {"mixed": images,
                                                 "all_live": live})
                speedup = float(np.median([row["all_live"] / row["mixed"]
                                           for row in rounds]))
                if speedup > 1.0:
                    break
            bucket.update(mixed_s=seconds["mixed"],
                          all_live_s=seconds["all_live"],
                          silent_speedup=speedup, attempts=attempt)
        else:
            seconds, _ = _race(engine, {"mixed": images})
            bucket["mixed_s"] = seconds["mixed"]
        buckets.append(bucket)

    sparsest = buckets[0]
    assert sparsest["silent_frames"] * 2 >= BATCH, sparsest
    assert sparsest["silent_speedup"] > 1.0, (
        f"a batch with {sparsest['silent_frames']}/{BATCH} silent frames "
        f"must run faster than an all-live batch at the same per-frame "
        f"density: {sparsest}")

    return {
        "workload": "LeNet-5, T=3, event blob frames per density bucket",
        "batch": BATCH,
        "buckets": buckets,
    }


def _shard_workload(shape, rng) -> np.ndarray:
    return probe_batch(shape, SHARD_DENSITY, SHARD_IMAGES, rng,
                       silent_frac=SHARD_SILENT_FRAC)


def run_saturated_sharding(runner, rng) -> dict:
    """Gate 2: saturate=True must beat fixed shards on 2 process lanes."""
    snn, config = _lenet(runner)
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


def _render_silent(results: dict) -> Table:
    table = Table(
        "Silent frames - batch time by input density (LeNet-5)",
        ["density", "silent", "batch s", "all-live s", "speedup"])
    for bucket in results["buckets"]:
        table.add_row(f"{bucket['input_density']:.3f}",
                      f"{bucket['silent_frames']}/{results['batch']}",
                      f"{bucket['mixed_s']:.4f}",
                      (f"{bucket['all_live_s']:.4f}"
                       if "all_live_s" in bucket else "-"),
                      (f"{bucket['silent_speedup']:.2f}x"
                       if "silent_speedup" in bucket else "-"))
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
    silent = run_silent_frames(runner, rng)
    print_table(_render_silent(silent))
    skip_unless_multicore(2, "saturated sharding gate")
    sharding = run_saturated_sharding(runner, rng)
    print_table(_render_sharding(sharding))
    write_artifact(RESULTS_PATH,
                   {"silent_frames": silent, "sharding": sharding})


if __name__ == "__main__":
    from repro.harness import ExperimentRunner

    main_runner = ExperimentRunner()
    main_rng = np.random.default_rng(0)
    silent_results = run_silent_frames(main_runner, main_rng)
    print(_render_silent(silent_results).render())
    payload = {"silent_frames": silent_results}
    if multicore(2):
        sharding_results = run_saturated_sharding(main_runner, main_rng)
        print(_render_sharding(sharding_results).render())
        payload["sharding"] = sharding_results
    else:
        print("single core visible: saturated sharding gate omitted")
    write_artifact(RESULTS_PATH, payload)
