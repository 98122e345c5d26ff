"""``benchmarks/record_perf.py``: the tool that writes every
``BENCH_*.json`` perf record.

The contracts pinned here, on two synthetic runs directories of
``W.S.out`` files shaped like perfbench's standard output:

* each metric's median, interquartile range and sample count;
* a change run pairs with the parent run of the same workload and seed
  only — an unpaired seed or workload adds no parent entry;
* "pairs better" counts each pair in the direction the metric's
  ``better`` in ``BENCHMARK.json`` names (lower CPU, higher throughput);
* an empty output file stops the tool (``SystemExit``) rather than
  recording a run that has no result;
* the record names the measured code: HEAD's sha, and on a dirty tree
  the sha256 of ``git diff HEAD --binary`` (null on a clean one).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def record_perf():
    spec = importlib.util.spec_from_file_location(
        "record_perf", ROOT / "benchmarks" / "record_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory: Path, workload: str, seed: int, metrics: dict,
              failed: int = 0) -> None:
    """One perfbench run's output: a log line, the diagnostics line,
    then the result object."""
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": value, "unit": "u"}
                          for name, value in metrics.items()}}
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}.{seed}.out").write_text("\n".join([
        "perfbench: warming up",
        json.dumps({"diagnostics": {"seconds": 20.0}}),
        json.dumps(result)]) + "\n")


#: ``{workload: {seed: (cpu_ms_per_image, images_per_s)}}``
CHANGE = {
    "sweep-vgg": {1: (2.0, 100.0), 2: (1.0, 120.0), 3: (3.0, 90.0),
                  4: (4.0, 110.0)},
    "sweep-events": {1: (0.1, 5.0), 2: (0.2, 6.0)},
    "serve-tcp": {1: (1.0, 50.0)},
}
PARENT = {
    # Seed 5 has no change run: it must not enter the pairs.
    "sweep-vgg": {1: (2.5, 90.0), 2: (0.5, 130.0), 3: (3.5, 80.0),
                  4: (4.5, 100.0), 5: (100.0, 1.0)},
    # Same workload, other seeds: nothing pairs.
    "sweep-events": {3: (0.3, 7.0), 4: (0.4, 8.0)},
}


@pytest.fixture
def runs(tmp_path):
    for name, table in (("change", CHANGE), ("parent", PARENT)):
        for workload, seeds in table.items():
            for seed, (cpu, rate) in seeds.items():
                write_run(tmp_path / name, workload, seed,
                          {"cpu_ms_per_image": cpu, "images_per_s": rate},
                          failed=int(name == "change" and seed == 3))
    return tmp_path / "change", tmp_path / "parent"


@pytest.fixture
def record(record_perf, runs, tmp_path, monkeypatch):
    """The record ``main`` writes, outside any git checkout's state."""
    monkeypatch.setattr(record_perf, "git", lambda *args: b"")
    out = tmp_path / "BENCH_test.json"
    change, parent = runs
    assert record_perf.main([str(out), str(change), "--parent",
                             str(parent), "--parent-sha", "abc"]) == 0
    return json.loads(out.read_text())


class TestRecordPerf:
    def test_loads_every_run_by_workload_and_seed(self, record_perf, runs):
        loaded = record_perf.load_runs(runs[0])
        assert {w: sorted(s) for w, s in loaded.items()} == \
            {w: sorted(s) for w, s in CHANGE.items()}
        assert loaded["sweep-vgg"][2]["seconds"] == 20.0
        assert loaded["sweep-vgg"][2]["metrics"]["images_per_s"][
            "value"] == 120.0

    def test_median_iqr_and_count(self, record):
        vgg = record["workloads"]["sweep-vgg"]
        assert vgg["seeds"] == [1, 2, 3, 4]
        assert vgg["seconds"] == [20.0]
        assert (vgg["correct"], vgg["failed"]) == (False, 1)
        cpu = vgg["metrics"]["cpu_ms_per_image"]
        # [1, 2, 3, 4]: inclusive quartiles 1.75 and 3.25.
        assert (cpu["median"], cpu["iqr"], cpu["n"]) == (2.5, 1.5, 4)
        serve = record["workloads"]["serve-tcp"]["metrics"][
            "cpu_ms_per_image"]
        assert (serve["median"], serve["iqr"], serve["n"]) == (1.0, 0.0, 1)

    def test_parent_pairs_by_workload_and_seed(self, record):
        assert record["parent_sha"] == "abc"
        cpu = record["workloads"]["sweep-vgg"]["metrics"][
            "cpu_ms_per_image"]
        # Parent seed 5 (100.0) is unpaired: [0.5, 2.5, 3.5, 4.5] only,
        # inclusive quartiles 2.0 and 3.75.
        assert cpu["pairs"] == 4
        assert cpu["parent"] == {"median": 3.0, "iqr": 1.75, "n": 4}
        assert cpu["change_pct"] == pytest.approx(100 * (2.5 - 3.0) / 3.0)
        for workload in ("sweep-events", "serve-tcp"):
            for entry in record["workloads"][workload]["metrics"].values():
                assert "parent" not in entry and "pairs" not in entry

    def test_pairs_better_follows_the_metric_direction(self, record):
        better = {m["name"]: m["better"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        assert better["cpu_ms_per_image"] == "lower"
        assert better["images_per_s"] == "higher"
        metrics = record["workloads"]["sweep-vgg"]["metrics"]
        # Lower CPU on seeds 1, 3, 4; higher throughput on 1, 3, 4.
        # The opposite direction would count seed 2 alone.
        assert metrics["cpu_ms_per_image"]["pairs_better"] == 3
        assert metrics["images_per_s"]["pairs_better"] == 3

    def test_empty_output_file_stops_the_record(self, record_perf,
                                                tmp_path):
        write_run(tmp_path / "runs", "sweep-vgg", 1, {"images_per_s": 1.0})
        (tmp_path / "runs" / "sweep-vgg.2.out").write_text("")
        with pytest.raises(SystemExit, match="empty perfbench output"):
            record_perf.load_runs(tmp_path / "runs")


class TestGitIdentity:
    SHA = "0123456789abcdef0123456789abcdef01234567"
    DIFF = (b"diff --git a/src/x.py b/src/x.py\n"
            b"--- a/src/x.py\n+++ b/src/x.py\n@@ -1 +1 @@\n-a\n+b\n")

    def write(self, record_perf, runs, tmp_path, monkeypatch, dirty):
        """The record ``main`` writes with ``git`` stubbed as a tree
        that is ``dirty`` (one modified tracked file) or clean."""
        outputs = {"rev-parse": self.SHA.encode() + b"\n",
                   "status": b" M src/x.py\n" if dirty else b"",
                   "diff": self.DIFF if dirty else b""}
        calls = []

        def fake_git(*args):
            calls.append(args)
            return outputs[args[0]]

        monkeypatch.setattr(record_perf, "git", fake_git)
        out = tmp_path / "BENCH_git.json"
        assert record_perf.main([str(out), str(runs[0])]) == 0
        assert ("diff", "HEAD", "--binary") in calls
        return json.loads(out.read_text())

    def test_dirty_tree_records_the_diff_hash(self, record_perf, runs,
                                              tmp_path, monkeypatch):
        record = self.write(record_perf, runs, tmp_path, monkeypatch,
                            dirty=True)
        assert record["git_sha"] == self.SHA
        assert record["tree_dirty"] is True
        assert record["diff_sha256"] == hashlib.sha256(self.DIFF).hexdigest()

    def test_clean_tree_records_no_diff_hash(self, record_perf, runs,
                                             tmp_path, monkeypatch):
        record = self.write(record_perf, runs, tmp_path, monkeypatch,
                            dirty=False)
        assert record["git_sha"] == self.SHA
        assert record["tree_dirty"] is False
        assert record["diff_sha256"] is None
