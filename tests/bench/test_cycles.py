"""The cycle ledger: workloads reproduce CYCLES.json, drift fails."""

import json

import pytest

from repro.bench import cycles

COMMITTED_HASH = \
    "bbb09d0b420c90b80f4f1fb482fc0bb21512e8fdb67af3bbfdce5deaf647b7cc"


@pytest.fixture(scope="module")
def fresh():
    """One run of all four workloads, shared by the module."""
    return cycles.ledger({name: workload()
                          for name, workload in cycles.WORKLOADS.items()})


class TestLedger:
    def test_workloads_reproduce_committed_ledger(self, fresh, capsys):
        """Tier-1 twin of CI's ``python -m repro cycles`` step."""
        assert fresh == cycles.committed()
        assert fresh["cycle_hash"] == COMMITTED_HASH
        assert cycles.main([]) == 0
        out = capsys.readouterr().out
        assert f"cycle hash: {COMMITTED_HASH}" in out
        assert "consistent with CYCLES.json" in out

    def test_ledger_holds_only_hash_and_totals(self):
        committed = cycles.committed()
        assert set(committed) == {"cycle_hash", "cycles"}
        assert set(committed["cycles"]) == set(cycles.WORKLOADS)
        assert all(type(total) is int and total > 0
                   for total in committed["cycles"].values())

    def test_cycle_hash_is_pure_function_of_cycles(self, fresh):
        assert cycles.cycle_hash(dict(fresh["cycles"])) \
            == fresh["cycle_hash"]
        bumped = dict(fresh["cycles"], forkstress=1)
        assert cycles.cycle_hash(bumped) != fresh["cycle_hash"]


class TestCommandLine:
    def test_drift_fails_and_names_workload(self, fresh, tmp_path,
                                            monkeypatch, capsys):
        drifted = json.loads(json.dumps(fresh))
        drifted["cycles"]["forkstress"] += 1
        path = tmp_path / "CYCLES.json"
        path.write_text(json.dumps(drifted))
        monkeypatch.setattr(cycles, "LEDGER", path)
        assert cycles.main([]) == 1
        problems = [line for line in capsys.readouterr().out.splitlines()
                    if " -> " in line]
        # the hand-edited total is named; the hash was left as it was
        total = fresh["cycles"]["forkstress"]
        assert problems == [f"  forkstress: cycles {total + 1} -> {total}"]

    def test_missing_ledger_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cycles, "LEDGER", tmp_path / "CYCLES.json")
        assert cycles.main([]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_write_roundtrips(self, tmp_path, monkeypatch):
        committed_text = cycles.LEDGER.read_text(encoding="utf-8")
        path = tmp_path / "CYCLES.json"
        monkeypatch.setattr(cycles, "LEDGER", path)
        assert cycles.main(["--write"]) == 0
        assert path.read_text(encoding="utf-8") == committed_text
        assert cycles.main([]) == 0

    # Options of the retired host-seconds harness, and values given to
    # the one flag left, are usage errors.
    @pytest.mark.parametrize("argv", [
        ["--warmup", "1"], ["--repeats", "3"], ["--out", "x.json"],
        ["--no-write"], ["--check", "CYCLES.json"],
        ["--workloads", "mb-suite"], ["--write=yes"], ["--write", "extra"],
    ])
    def test_retired_option_prints_usage(self, argv, capsys):
        assert cycles.main(argv) == 2
        err = capsys.readouterr().err
        assert argv[0].split("=")[0] in err
        assert "usage: python -m repro cycles" in err

    def test_unknown_option_prints_usage(self, capsys):
        assert cycles.main(["--bogus"]) == 2
        assert "usage: python -m repro cycles" in capsys.readouterr().err
