"""Chaos benchmark — fault-injected fabric throughput and exactness.

Two acceptance bars for the chaos-hardened runtime fabric:

* **Exactness under faults** — a mixed group (two process lanes plus a
  remote TCP lane) with a seeded kill *and* a seeded sever mid-run must
  answer every request exactly once, bit-identical to a serial
  single-lane run.  Hard gate on every machine.
* **Throughput under lane loss** — losing 1 of 3 process lanes to a
  chaos kill must retain ≥ 0.5x the healthy 3-lane throughput on the
  same work list, with zero lost and zero duplicated requests.  Gated
  on machines with ≥ 3 cores; measured and recorded everywhere.

Results land in ``artifacts/bench_chaos.json`` next to the fabric's
other axes (``bench_runtime.json``, ``bench_serve.json``) so fault
resilience is tracked across PRs like any other performance claim.
"""

import os

# Pin BLAS to one thread per process *before* numpy initializes: the
# lane-loss claim is about fabric capacity, not a BLAS thread lottery.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time
from pathlib import Path

import numpy as np

from repro.core import AcceleratorConfig
from repro.harness import Table
from repro.models import performance_network
from repro.runtime import (
    ChaosPolicy,
    Deployment,
    ThreadWorker,
    WorkItem,
    WorkerGroup,
    WorkerServer,
    create_workers,
)

from benchmarks.conftest import (
    FAST_MODE as FAST,
    multicore,
    print_table,
    skip_unless_multicore,
    write_artifact,
)

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_chaos.json")
NUM_ITEMS = 10 if FAST else 16
BATCH = 48 if FAST else 96
LOSS_GATE = 0.5          # chaos throughput >= 0.5x healthy


def _deployment(rng) -> Deployment:
    network = performance_network(
        [("conv", 8, 3, 1, 1), ("pool", 2), ("conv", 16, 3, 1, 1),
         ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 16, 16), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    return Deployment(network=network,
                      config=AcceleratorConfig.for_network(network))


def _items(rng, deployment, count=NUM_ITEMS, batch=BATCH):
    shape = deployment.network.input_shape
    return [WorkItem(item_id=i, deployment=0,
                     images=rng.random((batch,) + shape))
            for i in range(count)]


def _assert_exactly_once(items, results):
    """Every request answered, none twice, input order preserved."""
    assert [r.item_id for r in results] == [i.item_id for i in items]


def run_mixed_chaos(rng) -> dict:
    """Kill + sever a mixed local/remote group mid-run; compare serial."""
    deployment = _deployment(rng)
    deployment.engine().run_batch(
        rng.random((2,) + deployment.network.input_shape))
    items = _items(rng, deployment)

    with WorkerGroup([ThreadWorker()],
                     deployments=[deployment]) as group:
        serial = group.run(items)

    server = WorkerServer().start()
    chaos = ChaosPolicy(kill={"proc-0": 1}, sever={"remote-0": 2})
    try:
        workers = create_workers(
            ["process", "process", f"127.0.0.1:{server.port}"])
        for worker, name in zip(workers,
                                ("proc-0", "proc-1", "remote-0")):
            worker.name = name
        started = time.perf_counter()
        with WorkerGroup(workers, deployments=[deployment],
                         chaos=chaos, heartbeat_s=30.0) as group:
            chaotic = group.run(items)
            metrics = group.metrics
        wall = time.perf_counter() - started
    finally:
        server.close()

    _assert_exactly_once(items, chaotic)
    for base, other in zip(serial, chaotic):
        np.testing.assert_array_equal(base.logits, other.logits)
        assert base.merged_trace() == other.merged_trace()
    assert metrics.worker_crashes >= 1
    assert chaos.events, "seeded schedule injected nothing"
    return {
        "items": len(items),
        "batch": BATCH,
        "wall_s": wall,
        "worker_crashes": metrics.worker_crashes,
        "requeued": metrics.requeued,
        "retries": metrics.retries,
        "poisoned": metrics.poisoned,
        "chaos": chaos.summary(),
        "bit_identical_to_serial": True,
    }


def run_lane_loss(rng) -> dict:
    """3 healthy process lanes vs 3 lanes with one chaos-killed."""
    deployment = _deployment(rng)
    deployment.engine().run_batch(
        rng.random((2,) + deployment.network.input_shape))
    items = _items(rng, deployment)

    walls, counters = {}, {}
    for label, chaos in (("healthy", None),
                         ("lane_lost",
                          ChaosPolicy(kill={"lane-0": 1}))):
        workers = create_workers(["process"] * 3)
        for index, worker in enumerate(workers):
            worker.name = f"lane-{index}"
        with WorkerGroup(workers, deployments=[deployment],
                         chaos=chaos, heartbeat_s=30.0) as group:
            group.run(items[:2])   # spin lanes up off the clock
            started = time.perf_counter()
            results = group.run(items)
            walls[label] = time.perf_counter() - started
            counters[label] = group.metrics
        _assert_exactly_once(items, results)

    total_images = NUM_ITEMS * BATCH
    healthy_rps = total_images / walls["healthy"]
    chaos_rps = total_images / walls["lane_lost"]
    return {
        "items": NUM_ITEMS,
        "batch": BATCH,
        "healthy_wall_s": walls["healthy"],
        "lane_lost_wall_s": walls["lane_lost"],
        "healthy_images_per_s": healthy_rps,
        "lane_lost_images_per_s": chaos_rps,
        "retained_fraction": chaos_rps / healthy_rps,
        "gate": LOSS_GATE,
        "lane_lost_crashes": counters["lane_lost"].worker_crashes,
        "lane_lost_requeued": counters["lane_lost"].requeued,
        "lost_requests": 0,
        "duplicated_requests": 0,
    }


def _render(mixed: dict, loss: dict) -> Table:
    table = Table("Chaos drill - fault-injected fabric",
                  ["metric", "value"])
    table.add_row("mixed kill+sever bit-identical",
                  str(mixed["bit_identical_to_serial"]))
    table.add_row("mixed crashes / requeued",
                  f"{mixed['worker_crashes']} / {mixed['requeued']}")
    table.add_row("healthy 3-lane (images/s)",
                  f"{loss['healthy_images_per_s']:.1f}")
    table.add_row("1-of-3 lost (images/s)",
                  f"{loss['lane_lost_images_per_s']:.1f}")
    table.add_row("retained fraction",
                  f"{loss['retained_fraction']:.2f} "
                  f"(gate >= {LOSS_GATE})")
    table.add_row("lost / duplicated requests", "0 / 0")
    return table


def check_gate(loss: dict) -> None:
    """The lane-loss throughput gate (needs 3 real cores to mean
    anything — the exactness gates in run_* are hard everywhere)."""
    assert loss["retained_fraction"] >= LOSS_GATE, (
        f"1-of-3 lane loss retained only "
        f"{loss['retained_fraction']:.2f}x of healthy throughput "
        f"(gate {LOSS_GATE}x)")


def run_bench(rng) -> tuple[dict, dict]:
    mixed = run_mixed_chaos(rng)
    loss = run_lane_loss(rng)
    print_table(_render(mixed, loss))
    write_artifact(RESULTS_PATH, {"mixed_chaos": mixed,
                                  "lane_loss": loss})
    return mixed, loss


def test_chaos_fabric_benchmark(rng):
    _, loss = run_bench(rng)
    # Losing a lane costs capacity, never answers; the gate only means
    # something when 3 lanes can actually run in parallel.
    skip_unless_multicore(3, "1-of-3 lane-loss throughput gate")
    check_gate(loss)


if __name__ == "__main__":
    bench_rng = np.random.default_rng(7)
    _, bench_loss = run_bench(bench_rng)
    if multicore(3):
        check_gate(bench_loss)
    else:
        print(f"lane-loss gate skipped: {os.cpu_count() or 1} core(s) "
              "visible, needs >= 3")
