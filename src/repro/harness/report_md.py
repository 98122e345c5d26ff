"""Markdown report generation.

Turns the structured results of the experiment runners in
:mod:`repro.harness.experiments` (``run_table3(include_vgg=True)`` and
its siblings) into a single markdown document, so a full reproduction
run can refresh the paper-vs-measured record with one call::

    from repro.harness import ExperimentRunner, write_report
    write_report(ExperimentRunner(), "report.md")
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.experiments import ExperimentRunner

__all__ = ["build_report", "write_report"]


def _md_table(columns: list[str], rows: list[list[str]]) -> str:
    header = "| " + " | ".join(columns) + " |"
    divider = "|" + "|".join("---" for _ in columns) + "|"
    body = ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join([header, divider] + body)


def build_report(runner: ExperimentRunner, include_vgg: bool = True) -> str:
    """Run every experiment and render the combined markdown report."""
    sections: list[str] = ["# Reproduction report\n"]

    t1 = runner.run_table1()
    sections.append("## Table I — accuracy & latency vs. time steps\n")
    sections.append(_md_table(
        ["T", "acc % (paper)", "acc % (ours)", "lat us (paper)",
         "lat us (ours)"],
        [[r["num_steps"], f"{r['paper_accuracy_pct']:.2f}",
          f"{r['accuracy_pct']:.2f}", f"{r['paper_latency_us']:.0f}",
          f"{r['latency_us']:.0f}"] for r in t1["rows"]]))

    t2 = runner.run_table2()
    sections.append("\n## Table II — scaling with convolution units\n")
    sections.append(_md_table(
        ["units", "lat us (paper/ours)", "power W (paper/ours)",
         "LUTs (paper/ours)", "FFs (paper/ours)"],
        [[r["units"],
          f"{r['paper_latency_us']:.0f} / {r['latency_us']:.0f}",
          f"{r['paper_power_w']:.2f} / {r['power_w']:.2f}",
          f"{r['paper_luts']:,} / {r['luts']:,}",
          f"{r['paper_ffs']:,} / {r['ffs']:,}"] for r in t2["rows"]]))

    t3 = runner.run_table3(include_vgg=include_vgg)
    sections.append("\n## Table III — accelerator comparison\n")
    sections.append(_md_table(
        ["platform", "dataset", "acc %", "MHz", "lat us", "fps", "W",
         "LUTs", "FFs"],
        [[r["label"], r["dataset"], f"{r['accuracy_pct']:.1f}",
          f"{r['frequency_mhz']:.0f}", f"{r['latency_us']:,.0f}",
          f"{r['throughput_fps']:,.1f}", f"{r['power_w']:.2f}",
          f"{r['luts']:,}", f"{r['ffs']:,}"] for r in t3["rows"]]))

    enc = runner.run_encoding_ablation()
    comparison = enc["comparison"]
    sections.append("\n## Encoding ablation — radix vs. rate\n")
    radix, rate = enc["radix"], enc["rate"]
    all_t = sorted(set(radix.num_steps) | set(rate.num_steps))

    def cell(curve, t):
        if t in curve.num_steps:
            return f"{curve.accuracies[curve.num_steps.index(t)]*100:.2f}"
        return "—"

    sections.append(_md_table(
        ["T", "radix acc %", "rate acc %"],
        [[t, cell(radix, t), cell(rate, t)] for t in all_t]))
    gain = (f"{comparison.efficiency_gain * 100:.0f}%"
            if comparison.efficiency_gain is not None else "n/a")
    sections.append(
        f"\nRadix reaches the target at T={comparison.radix_steps}, rate "
        f"at T={comparison.rate_steps}; efficiency gain {gain} "
        "(paper: ~40%).")

    flow = runner.run_dataflow_ablation()
    summary = flow["summary"]
    sections.append("\n## Dataflow ablation — memory traffic\n")
    sections.append(_md_table(
        ["dataflow", "activation reads (bits)", "kernel reads (values)"],
        [["row-based (ours)",
          f"{summary.rowwise.activation_read_bits:,}",
          f"{summary.rowwise.kernel_read_values:,}"],
         ["naive sliding window",
          f"{summary.naive.activation_read_bits:,}",
          f"{summary.naive.kernel_read_values:,}"],
         ["reduction",
          f"{summary.activation_read_reduction:.1f}x",
          f"{summary.kernel_read_reduction:.1f}x"]]))

    return "\n".join(sections) + "\n"


def write_report(runner: ExperimentRunner, path: str | Path,
                 include_vgg: bool = True) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(build_report(runner, include_vgg=include_vgg))
    return path
