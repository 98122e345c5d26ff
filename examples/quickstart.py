"""Quickstart: train a small SNN, deploy it on the accelerator, run it.

This walks the paper's complete flow in about a minute:

1. generate a synthetic digit dataset (offline MNIST stand-in),
2. train LeNet-5 with quantization-aware training (3-bit weights,
   T-bit radix activations),
3. convert the ANN to a radix-encoded SNN (bit-exact contract),
4. deploy it on the simulated accelerator and run the functional model
   on the selected execution backend — ``reference`` simulates every
   register shift, ``vectorized`` computes the identical integer
   semantics with whole-batch tensor ops and skips silent images
   (``sparse`` is another name for it),
5. print the performance report the paper's Table III rows are made of.

Run:  python examples/quickstart.py [--backend reference|vectorized|sparse|both]
Set ``REPRO_FAST=1`` for a smoke-scale run (CI uses this).
"""

import argparse
import os
import time

import numpy as np

from repro.core import Accelerator, AcceleratorConfig, available_backends
from repro.data import generate_mnist
from repro.models import build_lenet5
from repro.nn import Adam
from repro.nn.qat import QATTrainer, add_activation_quantization
from repro.snn import ann_to_snn

NUM_STEPS = 4  # spike-train length T


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="both",
                        choices=available_backends() + ("both",),
                        help="execution engine for the functional run")
    args = parser.parse_args()
    # "both": the two engines; "sparse" only names "vectorized" again.
    backends = (("reference", "vectorized") if args.backend == "both"
                else (args.backend,))
    fast = bool(os.environ.get("REPRO_FAST"))
    train_count, epochs = (600, 1) if fast else (2000, 3)

    print("1) generating synthetic digit data ...")
    train, test = generate_mnist(train_count=train_count, test_count=400)

    print("2) quantization-aware training (3-bit weights, "
          f"T={NUM_STEPS} activations) ...")
    model = add_activation_quantization(build_lenet5(), NUM_STEPS)
    trainer = QATTrainer(model, Adam(model.params(), lr=1.5e-3),
                         weight_bits=3, input_steps=NUM_STEPS,
                         batch_size=64)
    trainer.fit(train.images, train.labels, epochs=epochs, verbose=True)

    print("3) converting to a radix-encoded SNN ...")
    snn = ann_to_snn(model, train.subset(256), num_steps=NUM_STEPS)
    accuracy = snn.accuracy(test)
    print(f"   SNN accuracy: {accuracy * 100:.2f}%")

    print("4) deploying on the accelerator (2 conv units, 100 MHz) ...")
    batch = test.images[:4 if fast else 16]
    reference_ints = snn.forward_ints(batch)
    report = None
    for backend in backends:
        accelerator = Accelerator(AcceleratorConfig(), backend=backend)
        accelerator.deploy(snn, name="LeNet-5")
        # The reference engine simulates every register shift — run it on
        # one image; the vectorized engine takes the whole batch at once.
        images = batch[:1] if backend == "reference" else batch
        start = time.perf_counter()
        logits, traces = accelerator.run_logits(images)
        elapsed = time.perf_counter() - start
        assert np.array_equal(logits, reference_ints[:len(images)]), \
            "hardware must be bit-exact"
        predictions = logits.argmax(axis=1)
        correct = int((predictions == test.labels[:len(images)]).sum())
        print(f"   {backend:>10}: {len(images)} image(s) in "
              f"{elapsed * 1e3:.1f} ms "
              f"({elapsed / len(images) * 1e3:.1f} ms/image), "
              f"{traces[0].total_cycles:,} cycles/frame, "
              f"{correct}/{len(images)} correct, bit-exact vs the SNN "
              "reference")
        report = accelerator.report(accuracy=accuracy)

    print("5) performance report:")
    print(report.summary())


if __name__ == "__main__":
    main()
