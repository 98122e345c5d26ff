"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.harness import ArtifactStore, ExperimentRunner, ExperimentSettings


@pytest.fixture()
def tiny_runner(tmp_path, monkeypatch):
    """Patch the CLI to use a smoke-scale runner with isolated artifacts.

    The CLI's constructor kwargs (backend, sweep_workers, ...) are
    applied onto the shared runner so the argument wiring in
    ``cli.main`` is actually exercised.
    """
    settings = ExperimentSettings(
        train_count=250, test_count=60, calibration_count=48,
        base_epochs=1, t3_epochs=1, fast=True)
    runner = ExperimentRunner(settings=settings,
                              store=ArtifactStore(tmp_path))

    def make_runner(**kwargs):
        for name, value in kwargs.items():
            assert hasattr(runner, name), name
            setattr(runner, name, value)
        return runner

    monkeypatch.setattr(cli, "ExperimentRunner", make_runner)
    return runner


class TestCliDispatch:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["rocket-science"])

    def test_calibrate_subcommand_removed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["calibrate"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err

    def test_window_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sweep", "--window", "2"])
        assert exit_info.value.code == 2
        assert ("unrecognized arguments: --window 2"
                in capsys.readouterr().err)

    def test_requires_argument(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_figures_path(self, tiny_runner, capsys):
        assert cli.main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "Fig. 2" in out
        assert "conv unit 0" in out

    def test_table2_path(self, tiny_runner, capsys):
        assert cli.main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "paper/ours" in out

    def test_table3_without_vgg(self, tiny_runner, capsys):
        assert cli.main(["table3", "--no-vgg"]) == 0
        out = capsys.readouterr().out
        assert "Ju et al." in out
        assert "VGG-11" not in out

    def test_dataflow_path(self, tiny_runner, capsys):
        assert cli.main(["dataflow"]) == 0
        out = capsys.readouterr().out
        assert "row-based" in out
        assert "naive sliding window" in out

    def test_dataflow_vectorized_backend(self, tiny_runner, capsys):
        tiny_runner.backend = "vectorized"
        assert cli.main(["dataflow", "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "row-based" in out

    def test_sweep_path(self, tiny_runner, capsys):
        assert cli.main(["sweep", "--workers", "2", "--shard-size", "16",
                         "--steps", "3"]) == 0
        assert tiny_runner.sweep_workers == 2
        assert tiny_runner.sweep_shard_size == 16
        out = capsys.readouterr().out
        assert "Accuracy sweep" in out
        assert "2 worker(s)" in out

    def test_sweep_bad_workers_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--workers", "0"])
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--shard-size", "-4"])

    def test_sweep_duplicate_steps_deduplicated(self, tiny_runner, capsys):
        assert cli.main(["sweep", "--steps", "3,3"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n3 |") == 2  # one row per requested step

    def test_sweep_bad_steps_rejected(self, tiny_runner):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--steps", "three"])
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--steps", ","])
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--steps", "0"])
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--steps", "-3"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["figures", "--backend", "warp-drive"])


class TestCliServing:
    def test_loadgen_in_process(self, tiny_runner, capsys):
        """Serve smoke: N requests in-process, predictions verified."""
        assert cli.main(["loadgen", "--requests", "24", "--rate", "300",
                         "--max-batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "Serving report" in out
        assert "all 24 served predictions match" in out
        assert tiny_runner.store.has_result("serve_loadgen_greedy")
        payload = tiny_runner.store.load_result("serve_loadgen_greedy")
        assert payload["snapshot"]["completed"] == 24
        assert payload["load"]["offered_rps"] == 300.0

    def test_loadgen_deadline_policy(self, tiny_runner, capsys):
        assert cli.main(["loadgen", "--requests", "16", "--rate", "200",
                         "--policy", "deadline", "--slo-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "slo_ms=500" in out
        assert tiny_runner.store.has_result("serve_loadgen_deadline")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["loadgen", "--policy", "fifo-ish"])

    def test_bad_serving_knobs_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["loadgen", "--max-batch", "0"])
        with pytest.raises(SystemExit):
            cli.main(["serve", "--engines", "-1"])
