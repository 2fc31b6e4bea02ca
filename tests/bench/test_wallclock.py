"""The wall-clock harness: determinism, report shape, drift check."""

import json

import pytest

from repro.bench import wallclock


@pytest.fixture(scope="module")
def report():
    # One reduced pass shared by the whole module; two repeats so the
    # harness's own per-repeat cycle-drift assertion actually runs.
    return wallclock.run(warmup=0, repeats=2,
                         only=["forkstress", "fileio-protected"])


class TestReportShape:
    def test_schema_and_keys(self, report):
        assert report["schema"] == 1
        assert set(report["workloads"]) == {"forkstress", "fileio-protected"}
        for entry in report["workloads"].values():
            assert entry["seconds"] > 0
            assert entry["cycles"] > 0

    def test_pages_per_sec_derived(self, report):
        entry = report["workloads"]["fileio-protected"]
        assert entry["pages"] > 0
        assert entry["pages_per_sec"] == pytest.approx(
            entry["pages"] / entry["seconds"], rel=0.01)

    def test_cycle_hash_is_pure_function_of_cycles(self, report):
        cycles = {name: entry["cycles"]
                  for name, entry in report["workloads"].items()}
        assert report["cycle_hash"] == wallclock.cycle_hash(cycles)


class TestDeterminism:
    def test_cycles_stable_across_runs(self, report):
        again = wallclock.run(warmup=0, repeats=1, only=["forkstress"])
        assert (again["workloads"]["forkstress"]["cycles"]
                == report["workloads"]["forkstress"]["cycles"])


class TestCheck:
    def test_roundtrip_passes(self, report, tmp_path):
        path = tmp_path / "bench.json"
        wallclock.write_report(report, path)
        assert json.loads(path.read_text())["cycle_hash"] \
            == report["cycle_hash"]
        assert wallclock.check_against(report, path) == []

    def test_drift_fails_and_names_workload(self, report, tmp_path):
        drifted = json.loads(json.dumps(report))
        drifted["cycle_hash"] = "0" * 64
        drifted["workloads"]["forkstress"]["cycles"] += 1
        path = tmp_path / "drifted.json"
        path.write_text(json.dumps(drifted))
        problems = wallclock.check_against(report, path)
        assert problems
        assert any("forkstress" in line for line in problems)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            wallclock.run(warmup=0, repeats=1, only=["no-such-workload"])


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["--repeats"], ["--warmup"], ["--out"], ["--check"],
        ["--seconds-tolerance"], ["--workloads"],
        ["--repeats", "many"], ["--warmup", "x"],
    ])
    def test_missing_or_bad_value_prints_usage(self, argv, capsys):
        assert wallclock.main(argv) == 2
        err = capsys.readouterr().err
        assert argv[0] in err
        assert "usage: python -m repro wallclock" in err

    def test_unknown_option_prints_usage(self, capsys):
        assert wallclock.main(["--bogus"]) == 2
        assert "usage: python -m repro wallclock" in capsys.readouterr().err
