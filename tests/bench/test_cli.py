"""Tests for the ``python -m repro`` command-line entry point."""

import json

import pytest

from repro.__main__ import DESCRIPTIONS, _experiments, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in DESCRIPTIONS:
            assert key in out

    def test_every_experiment_has_description_and_runner(self):
        experiments = _experiments()
        assert set(experiments) == set(DESCRIPTIONS)

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["r-zz"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_single_experiment_runs(self, capsys):
        assert main(["r-t1"]) == 0
        out = capsys.readouterr().out
        assert "R-T1" in out
        assert "zero-fill" in out

    def test_selection_is_case_insensitive(self, capsys):
        assert main(["R-T1"]) == 0


#: Malformed argv per command: a flag without its value, a value of the
#: wrong type, an unknown or misspelled flag.  Each is a usage error
#: that runs nothing.
BAD_ARGV = [
    ("faults", ["--seed"]),
    ("faults", ["--seed", "x"]),
    ("faults", ["--matrix-onyl"]),
    ("fuzz", ["--seed"]),
    ("fuzz", ["--count", "many"]),
    ("fuzz", ["--replay"]),
    ("fuzz", ["--replay", "garbage"]),
    ("fuzz", ["--count", "2", "--bogus"]),
    ("serve", ["--shards"]),
    ("serve", ["--shards", "x"]),
    ("serve", ["--kill", "one"]),
    ("serve", ["--shard", "3", "--inline", "--requests", "4", "--summary"]),
    ("", ["--frobnicate"]),
    ("", ["--frobnicate", "r-t1"]),
]


@pytest.mark.parametrize(
    "command, flags", BAD_ARGV,
    ids=[" ".join([command] + flags).strip() for command, flags in BAD_ARGV])
def test_bad_argv_is_a_usage_error(command, flags, capsys):
    argv = ([command] if command else []) + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    prog = f"python -m repro {command}".rstrip()
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert f"{prog}: error:" in captured.err
    assert captured.out == ""


class TestCommands:
    def test_faults_matrix_only(self, capsys):
        assert main(["faults", "--matrix-only", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "differential conformance" not in out
        assert "## fault-recovery matrix (seed 11)" in out
        assert "fault matrix: all contained" in out

    def test_fuzz_campaign_replay_and_golden(self, tmp_path, capsys):
        from repro.gen import driver, golden
        from repro.gen.spec import PRESETS

        report = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "0", "--count", "2", "--no-shrink",
                     "--out", str(report)]) == 0
        expected = driver.run_campaign(campaign_seed=0, count=2,
                                       fault_sites=False,
                                       shrink_failures=False)
        assert report.read_text() == expected.to_json()

        slot = expected.slots[1]
        token = driver.replay_token(slot.seed, PRESETS[slot.preset])
        capsys.readouterr()
        assert main(["fuzz", "--replay", token]) == 0
        out = capsys.readouterr().out
        assert f"seed={slot.seed} preset={slot.preset}" in out
        assert "replay: PASS" in out

        listings = tmp_path / "x.json"
        assert main(["fuzz", "--write-golden", str(listings)]) == 0
        assert json.loads(listings.read_text()) == golden.snapshot()

    def test_serve_summary(self, capsys):
        assert main(["serve", "--inline", "--shards", "2", "--requests",
                     "4", "--summary"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("serve: webserver shards=2 cloaked=False "
                              "arrival=poisson\n")
        assert "completed 4/4" in out

    def test_serve_report_matches_its_config(self, tmp_path, capsys):
        from repro.serve.cluster import ClusterConfig, report_json, run_cluster
        from repro.serve.loadgen import LoadSpec

        path = tmp_path / "serve.json"
        assert main(["serve", "--inline", "--shards", "2", "--requests",
                     "4", "--out", str(path)]) == 0
        config = ClusterConfig(
            spec=LoadSpec(app="webserver", requests=4, mean_gap=12_000,
                          arrival="poisson", connections=4,
                          deadline=240_000, seed=0),
            shards=2, cloaked=False, workers=0, inline=True,
            kill_shards=(), attach_metrics=True)
        expected = report_json(run_cluster(config))
        assert path.read_text() == expected
        assert capsys.readouterr().out == expected
