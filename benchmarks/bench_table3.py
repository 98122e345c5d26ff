"""Table III — efficiency and performance of SNN hardware accelerators.

Regenerates the paper's headline comparison: published Ju et al. / Fang
et al. rows next to our accelerator running Fang's CNN-2, LeNet-5 and
VGG-11 (CIFAR-100, DRAM-resident weights).  The claims checked are the
orderings the paper emphasizes: large latency advantage over Fang's
design, large throughput advantage over Ju's, lower power than both, less
than half their LUT/FF budget, and VGG-11 at more than four frames per
second.  The timed kernel is the compile-and-estimate path for the
28.5M-parameter VGG-11.
"""

from pathlib import Path

from repro.core import Accelerator, AcceleratorConfig
from repro.models import vgg11_performance_network
from repro.snn import SNNModel

from benchmarks.conftest import print_table, write_artifact

RESULTS_PATH = (Path(__file__).resolve().parent.parent
                / "artifacts" / "bench_table3.json")


def test_table3_report(runner, benchmark):
    result = runner.run_table3(include_vgg=True)
    print_table(result["table"])
    write_artifact(RESULTS_PATH, {"rows": result["rows"]})

    rows = {r["label"]: r for r in result["rows"]}
    ju = rows["Ju et al. [12]"]
    fang = rows["Fang et al. [11]"]
    ours_cnn2 = rows["This work (CNN 2)"]
    ours_lenet = rows["This work (LeNet-5)"]
    ours_vgg = rows["This work (VGG-11)"]

    # Who wins, by roughly what factor (paper: 18x lat, 15x fps, 25% pow):
    assert fang["latency_us"] / ours_cnn2["latency_us"] > 5.0
    assert ours_cnn2["throughput_fps"] / ju["throughput_fps"] > 5.0
    assert ours_cnn2["power_w"] < fang["power_w"] * 0.85
    assert ours_cnn2["luts"] < fang["luts"] / 2
    assert ours_cnn2["ffs"] < fang["ffs"] / 2
    assert ours_lenet["luts"] < ju["luts"] / 2

    # Accuracy regime (synthetic datasets; the full paper-vs-model table
    # is ExperimentRunner().run_table3(include_vgg=True) in
    # repro.harness.experiments):
    assert ours_lenet["accuracy_pct"] > 95.0
    assert ours_cnn2["accuracy_pct"] > 95.0

    # The scalability claim: VGG-11 streams from DRAM yet exceeds 4 fps.
    assert not ours_vgg["weights_on_chip"]
    assert ours_vgg["throughput_fps"] > 4.0
    assert ours_vgg["power_w"] > ours_lenet["power_w"]

    def compile_and_estimate_vgg():
        net = vgg11_performance_network(num_steps=6)
        config = AcceleratorConfig.for_network(net, num_conv_units=8,
                                               clock_mhz=115.0)
        accelerator = Accelerator(config)
        accelerator.deploy(SNNModel(net), name="VGG-11")
        return accelerator.report()

    benchmark.pedantic(compile_and_estimate_vgg, rounds=3, iterations=1)
