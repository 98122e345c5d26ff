"""Chaos drill: kill a lane mid-run and prove the answers didn't move.

The fabric's robustness claim in one script:

1. build a small deployed SNN and a batch of work,
2. run it serially on one thread lane — the ground truth,
3. run the same work on three process lanes under a seeded
   :class:`~repro.runtime.ChaosPolicy` that SIGKILLs one lane on its
   first dispatch,
4. assert every request was answered exactly once, bit-identical to
   the serial run, and print the fault log + scheduling counters.

The chaos schedule is a pure function of its seed, so a failure here
replays exactly — rerun with the same seed and the same lane dies at
the same draw.

Run:  python examples/chaos_drill.py
      (REPRO_FAST=1 shrinks the workload; CI-safe on any core count)
"""

import os

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
    create_workers,
)

FAST = bool(os.environ.get("REPRO_FAST"))


def build_deployment(rng) -> Deployment:
    network = performance_network(
        [("conv", 8, 3, 1, 1), ("pool", 2), ("flatten",), ("linear", 10)],
        input_shape=(1, 12, 12), num_steps=3,
        seed=int(rng.integers(1 << 16)))
    return Deployment(network=network,
                      config=AcceleratorConfig.for_network(network))


def make_items(rng, deployment, count, batch):
    shape = deployment.network.input_shape
    return [WorkItem(item_id=i, deployment=0,
                     images=rng.random((batch,) + shape))
            for i in range(count)]


def main() -> None:
    rng = np.random.default_rng(7)
    deployment = build_deployment(rng)
    count, batch = (4, 8) if FAST else (8, 24)
    items = make_items(rng, deployment, count, batch)

    print("1) serial ground truth (one thread lane) ...")
    with WorkerGroup([ThreadWorker()],
                     deployments=[deployment]) as group:
        serial = group.run([WorkItem(item_id=i.item_id, deployment=0,
                                     images=i.images) for i in items])

    print("2) three process lanes, chaos kills 'lane-0' on its first "
          "dispatch ...")
    chaos = ChaosPolicy(kill={"lane-0": 1})
    workers = create_workers(["process"] * 3)
    for index, worker in enumerate(workers):
        worker.name = f"lane-{index}"
    with WorkerGroup(workers, deployments=[deployment], chaos=chaos,
                     heartbeat_s=30.0) as group:
        chaotic = group.run(items)
        metrics = group.metrics
        survivors = group.alive_workers()

    print("3) verifying exactly-once, bit-identical results ...")
    assert [r.item_id for r in chaotic] == [i.item_id for i in items]
    for base, other in zip(serial, chaotic):
        np.testing.assert_array_equal(base.logits, other.logits)
        assert base.merged_trace() == other.merged_trace()
    print("   every request answered once; logits and traces match "
          "the serial run bit for bit.\n")

    table = Table("chaos drill", ["metric", "value"])
    table.add_row("injected faults",
                  ", ".join(f"{site}={hits}" for site, hits
                            in sorted(chaos.summary().items())) or "none")
    table.add_row("worker crashes", str(metrics.worker_crashes))
    table.add_row("items requeued", str(metrics.requeued))
    table.add_row("retries", str(metrics.retries))
    table.add_row("surviving lanes", ", ".join(survivors))
    print(table.render())


if __name__ == "__main__":
    main()
