"""Experiment runners: one function per table/figure/claim of the paper.

Each runner returns a structured result dictionary *and* a rendered
:class:`~repro.harness.tables.Table` whose rows place the paper's
published values next to our measurements.  Trained models are cached in
the artifact store, so repeated benchmark runs re-train nothing.

Experiment map (see DESIGN.md §6):

* :meth:`ExperimentRunner.run_table1` — accuracy & latency vs spike-train
  length (LeNet-5, U=2, 100 MHz).
* :meth:`ExperimentRunner.run_table2` — latency/power/resources vs number
  of convolution units (LeNet-5, T=3, 100 MHz).
* :meth:`ExperimentRunner.run_table3` — the cross-accelerator comparison
  (published Ju/Fang rows; our CNN-2, LeNet-5 and VGG-11 deployments).
* :meth:`ExperimentRunner.run_encoding_ablation` — radix vs rate accuracy
  over T (the Section IV-B ~40% efficiency claim).
* :meth:`ExperimentRunner.run_dataflow_ablation` — measured memory traffic
  of the row-based dataflow vs a naive sliding-window engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    FANG_2020,
    JU_2020,
    AccuracyCurve,
    DataflowSummary,
    encoding_advantage,
    naive_network_traffic,
)
from repro.core import (
    Accelerator,
    AcceleratorConfig,
    LatencyModel,
    PowerModel,
    ResourceModel,
    plan_bram,
)
from repro.data import generate_cifar100, generate_mnist
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError, SimulationError
from repro.harness.artifacts import ArtifactStore, default_store
from repro.harness.sweep import (
    SweepDriver,
    SweepTask,
    TaskOutcome,
    sweep_store_key,
)
from repro.harness.tables import Table
from repro.models import (
    build_fang_cnn,
    build_lenet5,
    build_vgg11,
    vgg11_performance_network,
)
from repro.nn import Adam, CosineSchedule, Sequential, Trainer
from repro.nn.qat import QATTrainer, add_activation_quantization
from repro.snn import SNNModel, ann_to_rate_snn, ann_to_snn

__all__ = ["ExperimentSettings", "ExperimentRunner"]

# Paper-reported values, used in side-by-side columns.
PAPER_TABLE1 = {3: (98.57, 648), 4: (99.09, 856), 5: (99.21, 1063),
                6: (99.26, 1271)}
PAPER_TABLE2 = {1: (1063, 3.07, 11_000, 10_000),
                2: (648, 3.09, 15_000, 14_000),
                4: (450, 3.17, 24_000, 23_000),
                8: (370, 3.28, 42_000, 39_000)}


@dataclass(frozen=True)
class ExperimentSettings:
    """Dataset/training budget for the experiments.

    ``fast`` shrinks everything to smoke-test scale (used by integration
    tests); default scale reaches the paper's accuracy regime in a few
    minutes per model on a laptop-class CPU.
    """

    train_count: int = 5000
    test_count: int = 1000
    calibration_count: int = 256
    base_epochs: int = 6
    t3_epochs: int = 10
    vgg_width: float = 0.125
    vgg_train_count: int = 6000
    vgg_test_count: int = 1200
    vgg_epochs: int = 8
    cifar_noise: float = 1.0
    seed: int = 7
    fast: bool = False

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        if os.environ.get("REPRO_FAST"):
            return cls(
                train_count=700, test_count=200, calibration_count=64,
                base_epochs=2, t3_epochs=3, vgg_width=0.0625,
                vgg_train_count=600, vgg_test_count=150, vgg_epochs=2,
                fast=True,
            )
        return cls()

    def key_suffix(self) -> str:
        """Cache-key component so fast/full artifacts never collide."""
        return (f"n{self.train_count}e{self.base_epochs}s{self.seed}"
                + ("f" if self.fast else ""))


class ExperimentRunner:
    """Shared state (datasets, caches) for all experiment functions.

    ``backend`` selects the execution engine for the trace-level
    simulations (dataflow ablation and friends); ``score_backend`` is the
    engine that scores accuracies — the hardware model runs every test
    image through :meth:`~repro.core.Accelerator.evaluate` semantics via
    the sweep driver, so paper tables are hardware-in-the-loop rather
    than the SNN shortcut.  It defaults to ``vectorized`` because the
    reference engine cannot traverse full test sets in reasonable time;
    both engines are pinned bit-identical by the equivalence suite, and
    every fresh score is additionally asserted equal to
    ``SNNModel.accuracy`` at runtime.

    All accuracy cache and result-store keys include the engine name
    that produced them, so switching backends can never serve a result
    computed under a different engine.  ``sweep_workers`` names the
    runtime-fabric lanes scoring shards across: an integer process
    count, or a list of lane specs (``"thread"``, ``"process"``,
    ``"host:port"`` remote TCP engine workers) — see ``repro.runtime``
    and ``repro.harness.sweep``.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        store: ArtifactStore | None = None,
        backend: str = "reference",
        score_backend: str = "vectorized",
        sweep_workers: int | list = 1,
        sweep_shard_size: int = 64,
        sweep_saturate: bool = False,
        sweep_stream=None,
        sweep_accept: tuple[str, int] | None = None,
        sweep_window: int | None = None,
        fabric_token: str | None = None,
    ) -> None:
        self.settings = settings or ExperimentSettings.from_env()
        self.store = store or default_store()
        self.backend = backend
        self.score_backend = score_backend
        self.sweep_workers = sweep_workers
        self.sweep_shard_size = sweep_shard_size
        self.sweep_saturate = sweep_saturate
        self.sweep_stream = sweep_stream
        self.sweep_accept = sweep_accept
        self.sweep_window = sweep_window
        self.fabric_token = fabric_token
        self._mnist: tuple[Dataset, Dataset] | None = None
        self._cifar: tuple[Dataset, Dataset] | None = None
        self._snn_cache: dict[str, tuple[SNNModel, float]] = {}
        self._outcome_cache: dict[str, TaskOutcome] = {}
        self.last_sweep_summary = None  # SweepSummary of the latest run

    # ------------------------------------------------------------------
    # Hardware-in-the-loop scoring (sweep driver)
    # ------------------------------------------------------------------
    def _score_key(self, base: str) -> str:
        """Accuracy cache key; names the engine that scores it."""
        return f"{base}_hw-{self.score_backend}"

    def sweep_driver(self) -> SweepDriver:
        """A driver wired to this runner's store and worker settings."""
        return SweepDriver(workers=self.sweep_workers,
                           shard_size=self.sweep_shard_size,
                           saturate=self.sweep_saturate,
                           store=self.store,
                           stream=self.sweep_stream,
                           accept=self.sweep_accept,
                           window=self.sweep_window,
                           token=self.fabric_token)

    def calibrate_model(self, spec: str = "lenet:3", *,
                        force: bool = False,
                        measure_dispatch: bool = False, **kwargs):
        """Measure (or reload) a model's calibration table.

        Resolves ``spec`` like every other deployment entry point, then
        runs :func:`~repro.core.engine.calibrate.calibrate_deployment`
        against this runner's artifact store under the exact
        ``AcceleratorConfig.for_network`` config the sweeps and servers
        deploy — so the persisted table's ``content_key`` is the one
        the sweep driver looks up.  Returns ``(canonical name, snn,
        table, cached)``.
        """
        from repro.core.engine.calibrate import calibrate_deployment

        name, snn, _ = self.resolve_model(spec)
        config = AcceleratorConfig.for_network(snn.network)
        table, cached = calibrate_deployment(
            snn.network, config, store=self.store, force=force,
            measure_dispatch=measure_dispatch, **kwargs)
        return name, snn, table, cached

    def _score_entries(
        self, entries: list[tuple[str, SNNModel, Dataset]]
    ) -> dict[str, TaskOutcome]:
        """Score (key, snn, test set) cells on the hardware model.

        One sweep run covers all cells — sharded across
        ``sweep_workers`` processes on the ``score_backend`` engine.
        Freshly computed outcomes are asserted equal to the SNN
        reference accuracy (the engine-equivalence contract, enforced
        end to end); cached outcomes were asserted when first computed.
        """
        todo = [e for e in entries
                if self._score_key(e[0]) not in self._outcome_cache]
        self.last_sweep_summary = None  # no driver ran (all cached)
        if todo:
            tasks = [
                SweepTask.from_dataset(
                    key, snn.network,
                    AcceleratorConfig.for_network(snn.network),
                    test, backend=self.score_backend)
                for key, snn, test in todo
            ]
            driver = self.sweep_driver()
            outcomes = driver.run(tasks)
            self.last_sweep_summary = driver.last_summary
            fresh = [(key, snn, test) for key, snn, test in todo
                     if not outcomes[key].cached]
            divergent = None
            for key, snn, test in fresh:
                reference = snn.accuracy(test)
                if outcomes[key].accuracy != reference:
                    divergent = (key, outcomes[key].accuracy, reference)
                    break
            if divergent is not None:
                # The engine is broken: scrub every record this run
                # persisted so no divergent score — raising cell or
                # sibling — can be served as validated cache later.
                for key, _, _ in fresh:
                    self.store.drop_result(
                        sweep_store_key(key, self.score_backend))
                key, got, reference = divergent
                raise SimulationError(
                    f"hardware accuracy {got:.6f} for {key!r} diverges "
                    f"from the SNN reference {reference:.6f}; the "
                    f"{self.score_backend!r} engine violates the "
                    "equivalence contract")
            for key, snn, test in todo:
                self._outcome_cache[self._score_key(key)] = outcomes[key]
        return {key: self._outcome_cache[self._score_key(key)]
                for key, _, _ in entries}

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def mnist(self) -> tuple[Dataset, Dataset]:
        if self._mnist is None:
            self._mnist = generate_mnist(
                train_count=self.settings.train_count,
                test_count=self.settings.test_count,
                seed=self.settings.seed,
            )
        return self._mnist

    def mnist28(self) -> tuple[Dataset, Dataset]:
        """28×28 variant for the Fang/Ju topologies."""
        return generate_mnist(
            train_count=self.settings.train_count,
            test_count=self.settings.test_count,
            image_size=28,
            seed=self.settings.seed + 1,
        )

    def cifar(self) -> tuple[Dataset, Dataset]:
        if self._cifar is None:
            self._cifar = generate_cifar100(
                train_count=self.settings.vgg_train_count,
                test_count=self.settings.vgg_test_count,
                seed=self.settings.seed + 2,
                noise_level=self.settings.cifar_noise,
            )
        return self._cifar

    # ------------------------------------------------------------------
    # Model training (QAT), cached
    # ------------------------------------------------------------------
    def _train_qat(
        self,
        key: str,
        builder,
        train: Dataset,
        num_steps: int,
        epochs: int,
        lr: float = 1.5e-3,
    ) -> Sequential:
        """Train (or load) a QAT model and return it."""
        model = add_activation_quantization(builder(), num_steps)
        if self.store.has_model(key):
            return self.store.load_model(key, model)
        steps = (len(train) // 64 + 1) * epochs
        trainer = QATTrainer(
            model, Adam(model.params(), lr=lr), weight_bits=3,
            input_steps=num_steps, batch_size=64, seed=self.settings.seed,
            schedule=CosineSchedule(lr, steps, 1e-5),
        )
        trainer.fit(train.images, train.labels, epochs=epochs)
        self.store.save_model(key, model)
        return model

    def _lenet_convert(self, num_steps: int) -> tuple[str, SNNModel]:
        """Train (or load) and convert LeNet-5 at ``T=num_steps``."""
        cache_key = f"lenet_t{num_steps}_{self.settings.key_suffix()}"
        train, _ = self.mnist()
        epochs = (self.settings.t3_epochs if num_steps <= 3
                  else self.settings.base_epochs)
        model = self._train_qat(
            cache_key, lambda: build_lenet5(seed=num_steps), train,
            num_steps, epochs)
        snn = ann_to_snn(model, train.subset(self.settings.calibration_count),
                         num_steps=num_steps, weight_bits=3)
        return cache_key, snn

    def lenet_snn(self, num_steps: int) -> tuple[SNNModel, float]:
        """Trained+converted LeNet-5 at ``T=num_steps`` and its accuracy.

        Accuracy is hardware-in-the-loop: the full test set runs through
        the functional accelerator model (``score_backend`` engine) via
        the sweep driver, not the SNN shortcut.
        """
        return self.lenet_sweep((num_steps,))[num_steps][:2]

    def lenet_sweep(
        self, steps: tuple
    ) -> dict[int, tuple[SNNModel, float, TaskOutcome]]:
        """Score several LeNet T-configs in one sharded sweep.

        Trains/loads every model first (cached), then runs one
        multi-config sweep over the whole test set — all (config, shard)
        cells share the worker pool, so a T-sweep saturates
        ``sweep_workers`` processes instead of running serially.
        """
        _, test = self.mnist()
        converted: dict[int, tuple[str, SNNModel]] = {}
        entries = []
        for t in dict.fromkeys(steps):  # dedup, order preserved
            base = f"lenet_t{t}_{self.settings.key_suffix()}"
            cached = self._snn_cache.get(self._score_key(base))
            if cached is not None:
                snn = cached[0]
            else:
                base, snn = self._lenet_convert(t)
            converted[t] = (base, snn)
            entries.append((base, snn, test))
        outcomes = self._score_entries(entries)
        results = {}
        for t, (base, snn) in converted.items():
            outcome = outcomes[base]
            self._snn_cache[self._score_key(base)] = (snn, outcome.accuracy)
            results[t] = (snn, outcome.accuracy, outcome)
        return results

    def fang_snn(self, num_steps: int = 4) -> tuple[SNNModel, float]:
        """Fang et al.'s CNN-2 deployed on our flow (Table III row 3)."""
        cache_key = f"fang_t{num_steps}_{self.settings.key_suffix()}"
        score_key = self._score_key(cache_key)
        if score_key in self._snn_cache:
            return self._snn_cache[score_key]
        train, test = self.mnist28()
        model = self._train_qat(
            cache_key, lambda: build_fang_cnn(seed=num_steps), train,
            num_steps, self.settings.base_epochs)
        snn = ann_to_snn(model, train.subset(self.settings.calibration_count),
                         num_steps=num_steps, weight_bits=3)
        accuracy = self._score_entries([(cache_key, snn, test)])[
            cache_key].accuracy
        self._snn_cache[score_key] = (snn, accuracy)
        return snn, accuracy

    def vgg_accuracy(self, num_steps: int = 6) -> float:
        """Accuracy of the width-reduced VGG-11 on synthetic CIFAR-100.

        The hardware row uses the *full* VGG-11 geometry; training 28.5M
        parameters in numpy is infeasible, so accuracy comes from the
        reduced-width twin (DESIGN.md §2 records this substitution) —
        scored, like every accuracy, by the hardware model over the full
        test set.  The sweep store short-circuits training when this
        cell was already scored under the same engine.
        """
        cache_key = (f"vgg_t{num_steps}_w{self.settings.vgg_width}"
                     f"_{self.settings.key_suffix()}")
        stored = sweep_store_key(cache_key, self.score_backend)
        if self.store.has_result(stored):
            return TaskOutcome.from_dict(
                self.store.load_result(stored)).accuracy
        train, test = self.cifar()
        model = self._train_qat(
            cache_key,
            lambda: build_vgg11(width_multiplier=self.settings.vgg_width,
                                seed=num_steps),
            train, num_steps, self.settings.vgg_epochs, lr=1e-3)
        snn = ann_to_snn(model, train.subset(self.settings.calibration_count),
                         num_steps=num_steps, weight_bits=3)
        return self._score_entries([(cache_key, snn, test)])[
            cache_key].accuracy

    # ------------------------------------------------------------------
    # Table I — accuracy & latency vs time steps
    # ------------------------------------------------------------------
    def run_table1(self, steps: tuple = (3, 4, 5, 6)) -> dict:
        config = AcceleratorConfig()  # U=2, (30,5), 100 MHz — the paper's
        latency = LatencyModel(config)
        # One sharded sweep scores every T on the hardware model.
        sweep = self.lenet_sweep(steps)
        rows = []
        for t in steps:
            snn, accuracy, _ = sweep[t]
            lat_us = latency.latency_us(snn.network)
            paper_acc, paper_lat = PAPER_TABLE1.get(t, (float("nan"),) * 2)
            rows.append({
                "num_steps": t,
                "accuracy_pct": accuracy * 100,
                "latency_us": lat_us,
                "paper_accuracy_pct": paper_acc,
                "paper_latency_us": paper_lat,
            })
        table = Table(
            "Table I - accuracy & latency versus time steps "
            "(LeNet-5, 2 conv units, 100 MHz)",
            ["T", "acc % (paper)", "acc % (ours)", "lat us (paper)",
             "lat us (ours)"])
        for row in rows:
            table.add_row(row["num_steps"], row["paper_accuracy_pct"],
                          row["accuracy_pct"], row["paper_latency_us"],
                          row["latency_us"])
        return {"rows": rows, "table": table}

    # ------------------------------------------------------------------
    # Table II — latency, power & resources vs convolution units
    # ------------------------------------------------------------------
    def run_table2(self, unit_counts: tuple = (1, 2, 4, 8)) -> dict:
        snn, _ = self.lenet_snn(3)
        rows = []
        for units in unit_counts:
            config = AcceleratorConfig().with_units(units)
            lat_us = LatencyModel(config).latency_us(snn.network)
            bram = plan_bram(snn.network, config.memory,
                             weights_on_chip=True)
            power_w = PowerModel(config).average_power_w(
                bram_mbit=bram.total_mbit)
            res = ResourceModel(config).estimate(weights_on_chip=True)
            paper = PAPER_TABLE2.get(units, (float("nan"),) * 4)
            rows.append({
                "units": units,
                "latency_us": lat_us,
                "power_w": power_w,
                "luts": res.luts,
                "ffs": res.ffs,
                "paper_latency_us": paper[0],
                "paper_power_w": paper[1],
                "paper_luts": paper[2],
                "paper_ffs": paper[3],
            })
        table = Table(
            "Table II - latency, power & resources versus convolution "
            "units (LeNet-5, T=3, 100 MHz)",
            ["units", "lat us (paper/ours)", "power W (paper/ours)",
             "LUTs (paper/ours)", "FFs (paper/ours)"])
        for r in rows:
            table.add_row(
                r["units"],
                f"{r['paper_latency_us']:.0f} / {r['latency_us']:.0f}",
                f"{r['paper_power_w']:.2f} / {r['power_w']:.2f}",
                f"{r['paper_luts']:,} / {r['luts']:,}",
                f"{r['paper_ffs']:,} / {r['ffs']:,}")
        return {"rows": rows, "table": table}

    # ------------------------------------------------------------------
    # Table III — cross-accelerator comparison
    # ------------------------------------------------------------------
    def _deploy_row(self, label, dataset, snn, accuracy, units, clock,
                    config=None) -> dict:
        config = config or AcceleratorConfig.for_network(
            snn.network, num_conv_units=units, clock_mhz=clock)
        acc_hw = Accelerator(config)
        acc_hw.deploy(snn, name=label)
        report = acc_hw.report(accuracy=accuracy)
        return {
            "label": label, "dataset": dataset,
            "accuracy_pct": (accuracy or 0.0) * 100,
            "frequency_mhz": clock,
            "latency_us": report.latency_us,
            "throughput_fps": report.throughput_fps,
            "power_w": report.power_w,
            "luts": report.luts, "ffs": report.ffs,
            "bram_mbit": report.bram_mbit,
            "weights_on_chip": report.weights_on_chip,
        }

    def run_table3(self, include_vgg: bool = True) -> dict:
        rows: list[dict] = []
        for pub in (JU_2020, FANG_2020):
            rows.append({
                "label": pub.label, "dataset": pub.dataset,
                "accuracy_pct": pub.accuracy_pct,
                "frequency_mhz": pub.frequency_mhz,
                "latency_us": pub.latency_us,
                "throughput_fps": pub.throughput_fps,
                "power_w": pub.power_w, "luts": pub.luts, "ffs": pub.ffs,
                "bram_mbit": float("nan"), "weights_on_chip": True,
            })

        fang_snn, fang_acc = self.fang_snn(num_steps=4)
        rows.append(self._deploy_row(
            "This work (CNN 2)", "MNIST", fang_snn, fang_acc,
            units=4, clock=200.0))

        lenet_snn, lenet_acc = self.lenet_snn(4)
        rows.append(self._deploy_row(
            "This work (LeNet-5)", "MNIST", lenet_snn, lenet_acc,
            units=4, clock=200.0,
            config=AcceleratorConfig().with_units(4).with_clock(200.0)))

        if include_vgg:
            vgg_net = vgg11_performance_network(num_steps=6)
            vgg_snn = SNNModel(vgg_net)
            vgg_acc = self.vgg_accuracy(num_steps=6)
            rows.append(self._deploy_row(
                "This work (VGG-11)", "CIFAR-100", vgg_snn, vgg_acc,
                units=8, clock=115.0))

        table = Table(
            "Table III - efficiency and performance of SNN hardware "
            "accelerators",
            ["platform", "dataset", "acc %", "MHz", "lat us", "fps",
             "W", "LUTs", "FFs"])
        for r in rows:
            table.add_row(
                r["label"], r["dataset"], r["accuracy_pct"],
                r["frequency_mhz"], r["latency_us"], r["throughput_fps"],
                r["power_w"], f"{r['luts']:,}", f"{r['ffs']:,}")
        return {"rows": rows, "table": table}

    # ------------------------------------------------------------------
    # Section IV-B claim — radix vs rate encoding
    # ------------------------------------------------------------------
    def run_encoding_ablation(
        self,
        radix_steps: tuple = (3, 4, 5, 6),
        rate_steps: tuple = (2, 4, 6, 8, 10, 12, 16, 24, 32),
    ) -> dict:
        # The radix side is hardware-in-the-loop: one sharded sweep over
        # all T cells on the accelerator model (the rate baseline below
        # stays on the rate SNN — it is not this paper's hardware).
        sweep = self.lenet_sweep(tuple(radix_steps))
        radix_accs = [sweep[t][1] for t in radix_steps]
        radix_curve = AccuracyCurve("radix", tuple(radix_steps),
                                    tuple(radix_accs))

        # Rate baseline: classic threshold-balanced conversion of a plain
        # float-trained LeNet (full-precision weights — generous to the
        # baseline; the gap measured is attributable to the encoding).
        # The long-T simulations take minutes, so the curve is cached.
        rate_key = (f"rate_curve_{'-'.join(map(str, rate_steps))}"
                    f"_{self.settings.key_suffix()}")
        if self.store.has_result(rate_key):
            rate_accs = [float(a) for a in
                         self.store.load_result(rate_key)["accuracies"]]
        else:
            train, test = self.mnist()
            key = f"lenet_float_{self.settings.key_suffix()}"
            model = build_lenet5(seed=99)
            if self.store.has_model(key):
                self.store.load_model(key, model)
            else:
                trainer = Trainer(model, Adam(model.params(), lr=1.5e-3),
                                  batch_size=64, seed=self.settings.seed)
                trainer.fit(train.images, train.labels,
                            epochs=self.settings.base_epochs)
                self.store.save_model(key, model)
            rate = ann_to_rate_snn(
                model, train.subset(self.settings.calibration_count),
                weight_bits=None)
            rate_accs = [rate.accuracy(test, num_steps=t)
                         for t in rate_steps]
            self.store.save_result(rate_key, {"accuracies": rate_accs})
        rate_curve = AccuracyCurve("rate", tuple(rate_steps),
                                   tuple(rate_accs))

        comparison = encoding_advantage(radix_curve, rate_curve)
        table = Table(
            "Encoding ablation - accuracy versus spike-train length "
            "(LeNet-5; paper: radix T=6 matches rate T~10, ~40% saving)",
            ["T", "radix acc %", "rate acc %"])
        all_t = sorted(set(radix_steps) | set(rate_steps))
        for t in all_t:
            r = (f"{radix_accs[radix_steps.index(t)] * 100:.2f}"
                 if t in radix_steps else "-")
            p = (f"{rate_accs[rate_steps.index(t)] * 100:.2f}"
                 if t in rate_steps else "-")
            table.add_row(t, r, p)
        return {
            "radix": radix_curve, "rate": rate_curve,
            "comparison": comparison, "table": table,
        }

    # ------------------------------------------------------------------
    # Sharded accuracy sweep (the `repro sweep` command)
    # ------------------------------------------------------------------
    def run_accuracy_sweep(self, steps: tuple = (3, 4)) -> dict:
        """Hardware-in-the-loop accuracy sweep with throughput reporting.

        Scores every LeNet T-config over the full test set through the
        sweep driver (``sweep_workers`` processes, ``score_backend``
        engine) and reports per-cell accuracy, hardware cycles per image
        and measured simulation throughput.
        """
        sweep = self.lenet_sweep(steps)
        summary = self.last_sweep_summary
        rows = []
        for t in steps:
            _, accuracy, outcome = sweep[t]
            rows.append({
                "num_steps": t,
                "accuracy_pct": accuracy * 100,
                "images": outcome.num_images,
                "shards": outcome.num_shards,
                "cycles_per_image": outcome.trace.cycles_per_image(),
                "worker_s": outcome.elapsed_s,
                "cached": outcome.cached,
            })
        workers = self.sweep_workers
        lanes = (f"{workers} worker(s)" if isinstance(workers, int)
                 else "lanes " + ",".join(workers))
        table = Table(
            f"Accuracy sweep - hardware-in-the-loop over the test set "
            f"({self.score_backend} engine, {lanes})",
            ["T", "acc %", "images", "shards", "cycles/img", "worker s"])
        for row in rows:
            table.add_row(
                row["num_steps"], f"{row['accuracy_pct']:.2f}",
                row["images"],
                "cached" if row["cached"] else row["shards"],
                f"{row['cycles_per_image']:,.0f}",
                f"{row['worker_s']:.2f}")
        return {"rows": rows, "table": table, "summary": summary}

    # ------------------------------------------------------------------
    # Deployments (multi-model serving / `repro deployments`)
    # ------------------------------------------------------------------
    #: Model-spec grammar for `--model`: NAME[:T].  Each resolver
    #: returns the trained+converted SNN plus its hardware accuracy.
    MODEL_SPECS = {"lenet": 3, "fang": 4}  # name -> default T

    def resolve_model(self, spec: str):
        """``"lenet:3"`` / ``"fang:4"`` → (canonical name, snn, accuracy).

        The accuracy is hardware-in-the-loop (scored by the sweep over
        the model's full test set), so a registry row always carries the
        number the paper tables report.
        """
        spec = str(spec).strip().lower()
        name, _, t_raw = spec.partition(":")
        if name not in self.MODEL_SPECS:
            raise ConfigurationError(
                f"unknown model {name!r}; available: "
                + ", ".join(f"{m}[:T]" for m in self.MODEL_SPECS))
        try:
            num_steps = int(t_raw) if t_raw else self.MODEL_SPECS[name]
        except ValueError:
            raise ConfigurationError(
                f"bad model spec {spec!r}; expected NAME[:T]") from None
        if num_steps < 1:
            raise ConfigurationError(
                f"model spec {spec!r}: T must be >= 1")
        if name == "lenet":
            snn, accuracy = self.lenet_snn(num_steps)
        else:
            snn, accuracy = self.fang_snn(num_steps)
        return f"{name}:{num_steps}", snn, accuracy

    def build_registry(self, models):
        """A deployment registry from ``--model`` specs.

        Returns ``(registry, accuracies)`` — entries named by canonical
        spec (``lenet:3``), all on the ``score_backend`` engine, plus
        each model's hardware accuracy for reporting.
        """
        from repro.runtime import DeploymentRegistry

        registry = DeploymentRegistry()
        accuracies: dict[str, float] = {}
        for spec in models:
            name, snn, accuracy = self.resolve_model(spec)
            registry.register(name, network=snn.network,
                              backend=self.score_backend)
            accuracies[name] = accuracy
        return registry, accuracies

    # ------------------------------------------------------------------
    # Serving (the `repro serve` / `repro loadgen` commands)
    # ------------------------------------------------------------------
    def build_server(self, num_steps: int = 3, **serve_kwargs):
        """An :class:`~repro.serve.InferenceServer` over the trained LeNet.

        Trains/loads the ``T=num_steps`` LeNet (cached like every other
        experiment model), scores it hardware-in-the-loop, and wraps the
        quantized network in a server on the ``score_backend`` engine.
        Returns ``(server, snn, accuracy)``; the caller starts/stops the
        server (``async with server: ...``).
        """
        from repro.serve import InferenceServer  # serving is optional

        snn, accuracy = self.lenet_snn(num_steps)
        serve_kwargs.setdefault("backend", self.score_backend)
        server = InferenceServer(snn.network, **serve_kwargs)
        return server, snn, accuracy

    def build_multi_server(self, models, **serve_kwargs):
        """A multi-model :class:`~repro.serve.InferenceServer`.

        ``models`` is a list of ``--model`` specs; every named
        deployment shares one engine pool with per-deployment batching
        and metrics.  Returns ``(server, registry, accuracies)``.
        """
        from repro.serve import InferenceServer  # serving is optional

        registry, accuracies = self.build_registry(models)
        server = InferenceServer(registry, **serve_kwargs)
        return server, registry, accuracies

    def save_serve_metrics(self, name: str, snapshot,
                           extra: dict | None = None) -> dict:
        """Persist a serving metrics snapshot in the artifact store.

        The record lands next to the experiment results (key
        ``serve_<name>``), so load runs leave the same durable trail as
        table regenerations; returns the stored payload.
        """
        payload = {"snapshot": snapshot.to_dict()}
        if extra:
            payload.update(extra)
        self.store.save_result(f"serve_{name}", payload)
        return payload

    # ------------------------------------------------------------------
    # Section III-A claim — row dataflow memory-traffic reduction
    # ------------------------------------------------------------------
    def run_dataflow_ablation(self, num_images: int = 2) -> dict:
        snn, _ = self.lenet_snn(3)
        config = AcceleratorConfig()
        accelerator = Accelerator(config, backend=self.backend)
        accelerator.deploy(snn, name="LeNet-5")
        _, test = self.mnist()
        _, traces = accelerator.run(test.images[:num_images])
        measured = traces[0].total_traffic()
        naive = naive_network_traffic(snn.network)
        summary = DataflowSummary(rowwise=measured, naive=naive)
        table = Table(
            "Dataflow ablation - memory accesses per inference "
            "(LeNet-5, T=3)",
            ["dataflow", "activation reads (bits)", "kernel reads "
             "(values)"])
        table.add_row("row-based (ours)",
                      f"{measured.activation_read_bits:,}",
                      f"{measured.kernel_read_values:,}")
        table.add_row("naive sliding window",
                      f"{naive.activation_read_bits:,}",
                      f"{naive.kernel_read_values:,}")
        table.add_row("reduction",
                      f"{summary.activation_read_reduction:.1f}x",
                      f"{summary.kernel_read_reduction:.1f}x")
        return {"summary": summary, "table": table}
