"""Tests for the ``python -m repro`` command-line front end."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main

SPEC = """
system cli_test;
instance src : Source(pattern="counter");
instance q : Queue(depth=4);
instance snk : Sink();
connect src.out -> q.in;
connect q.out -> snk.in;
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "system.lss"
    path.write_text(SPEC)
    return str(path)


class TestMain:
    def test_runs_and_reports(self, spec_file, capsys):
        assert main([spec_file, "--cycles", "50"]) == 0
        out = capsys.readouterr().out
        assert "cli_test" in out
        assert "snk:consumed = 49" in out

    def test_engine_selection(self, spec_file, capsys):
        # The former names stay accepted as aliases.
        for engine in ("worklist", "levelized", "batched", "codegen",
                       "batched-vec"):
            assert main([spec_file, "--cycles", "10",
                         "--engine", engine]) == 0
            assert "snk:consumed = 9" in capsys.readouterr().out

    def test_stats_prefix_filter(self, spec_file, capsys):
        main([spec_file, "--cycles", "10", "--stats", "snk"])
        out = capsys.readouterr().out
        assert "snk:consumed" in out
        assert "src:emitted" not in out

    def test_dot_export(self, spec_file, tmp_path, capsys):
        dot = tmp_path / "design.dot"
        main([spec_file, "--cycles", "1", "--dot", str(dot)])
        text = dot.read_text()
        assert text.startswith("digraph")
        assert '"q"' in text

    def test_activity_report(self, spec_file, capsys):
        main([spec_file, "--cycles", "20", "--activity"])
        assert "src.out -> q.in" in capsys.readouterr().out

    def test_vcd_export(self, spec_file, tmp_path, capsys):
        vcd = tmp_path / "trace.vcd"
        main([spec_file, "--cycles", "10", "--vcd", str(vcd)])
        text = vcd.read_text()
        assert "$enddefinitions $end" in text
        assert "#0" in text

    def test_shipped_example_spec(self, capsys):
        example = os.path.join(os.path.dirname(__file__), "..",
                               "examples", "pipeline.lss")
        assert main([example, "--cycles", "50"]) == 0
        out = capsys.readouterr().out
        assert "textual_pipeline" in out


def test_subprocess_invocation(spec_file):
    result = subprocess.run(
        [sys.executable, "-m", "repro", spec_file, "--cycles", "20"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "snk:consumed = 19" in result.stdout


class TestSubcommands:
    def test_explicit_run_subcommand(self, spec_file, capsys):
        assert main(["run", spec_file, "--cycles", "10"]) == 0
        assert "snk:consumed = 9" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__
        assert __version__ in capsys.readouterr().out


class TestErrorHandling:
    def test_framework_error_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.lss"
        bad.write_text("system broken;\n"
                       "instance a : NoSuchTemplate();\n")
        assert main([str(bad), "--cycles", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.lss")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_campaign_error_exits_2(self, spec_file, capsys):
        # campaign without any --grid axis is a framework error.
        assert main(["campaign", spec_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CampaignError")


class TestCampaignCommand:
    def _argv(self, spec_file, ledger, extra=()):
        return ["campaign", spec_file,
                "--grid", "q.depth=1,4",
                "--grid", "src.pattern=counter",
                "--cycles", "30", "--workers", "0", "--retries", "0",
                "--ledger", ledger, *extra]

    def test_launch_and_report(self, spec_file, tmp_path, capsys):
        ledger = str(tmp_path / "cli.jsonl")
        assert main(self._argv(spec_file, ledger,
                               ["--metrics", "transfers",
                                "--group-by", "q.depth:transfers"])) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "transfers by q.depth" in out
        assert os.path.exists(ledger)

        assert main(["campaign", "--ledger", ledger, "--report"]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out

    def test_resume_executes_only_remaining_points(self, spec_file, tmp_path,
                                                   capsys):
        import json
        ledger = str(tmp_path / "resume.jsonl")
        assert main(self._argv(spec_file, ledger)) == 0
        capsys.readouterr()

        # Forge an interruption: drop the completion of the last point.
        events = [json.loads(line) for line in open(ledger)]
        done = [e for e in events if e["event"] == "done"]
        assert len(done) == 2
        interrupted = [e for e in events if e != done[-1]]
        with open(ledger, "w") as handle:
            for event in interrupted:
                handle.write(json.dumps(event) + "\n")

        assert main(self._argv(spec_file, ledger, ["--resume"])) == 0
        out = capsys.readouterr().out
        assert "1 already done, 1 to run" in out

        events = [json.loads(line) for line in open(ledger)]
        starts = [e for e in events if e["event"] == "start"]
        # 2 original attempts + exactly 1 resumed attempt.
        assert len(starts) == 3
        assert len([e for e in events if e["event"] == "done"]) == 2

    def test_resume_mismatched_grid_fails(self, spec_file, tmp_path, capsys):
        ledger = str(tmp_path / "mismatch.jsonl")
        assert main(self._argv(spec_file, ledger)) == 0
        capsys.readouterr()
        argv = ["campaign", spec_file, "--grid", "q.depth=2,8",
                "--cycles", "30", "--workers", "0",
                "--ledger", ledger, "--resume"]
        assert main(argv) == 2
        assert "different campaign" in capsys.readouterr().err


class TestRunProfileFlag:
    def test_run_profile_prints_hotspots(self, spec_file, capsys):
        assert main(["run", spec_file, "--cycles", "20", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "snk:consumed = 19" in out       # normal report intact
        assert "hot instances" in out
        assert "20 steps" in out

    def test_run_profile_sample_knob(self, spec_file, capsys):
        assert main(["run", spec_file, "--cycles", "20", "--profile",
                     "--profile-sample", "5"]) == 0
        assert "sample_every=5" in capsys.readouterr().out


class TestProfileCommand:
    def test_spec_prints_report(self, spec_file, capsys):
        assert main(["profile", spec_file, "--cycles", "30"]) == 0
        out = capsys.readouterr().out
        assert "hot instances" in out
        assert "hot wires" in out
        assert "30 steps" in out

    def test_out_dir_writes_all_artifacts(self, spec_file, tmp_path, capsys):
        import json
        out_dir = str(tmp_path / "prof")
        assert main(["profile", spec_file, "--cycles", "20",
                     "--out", out_dir]) == 0
        capsys.readouterr()
        report = open(os.path.join(out_dir, "report.txt")).read()
        assert "hot instances" in report
        metrics = json.load(open(os.path.join(out_dir, "metrics.json")))
        assert metrics["counters"]["engine.steps"] == 20
        trace = json.load(open(os.path.join(out_dir, "trace.json")))
        assert trace["traceEvents"]
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_builder_with_params(self, capsys):
        assert main(["profile", "--builder",
                     "repro.systems.fig2a:build_fig2a_cmp",
                     "--param", "width=2", "--param", "height=1",
                     "--cycles", "15", "--engine", "levelized"]) == 0
        out = capsys.readouterr().out
        assert "LevelizedSimulator" in out
        assert "core_0_0" in out

    def test_engine_parity_of_profile_counts(self, spec_file, capsys):
        reports = {}
        for engine in ("worklist", "levelized", "batched"):
            assert main(["profile", spec_file, "--cycles", "10",
                         "--engine", engine]) == 0
            reports[engine] = capsys.readouterr().out
        # All engines agree on the exact react counts shown per instance.
        for engine, out in reports.items():
            assert "10 steps" in out, engine

    def test_missing_spec_and_builder_exits_2(self, capsys):
        assert main(["profile"]) == 2
        assert "profile needs" in capsys.readouterr().err

    def test_param_without_builder_exits_2(self, spec_file, capsys):
        assert main(["profile", spec_file, "--param", "x=1"]) == 2
        assert "--param" in capsys.readouterr().err


class TestCampaignProfileFlag:
    def test_campaign_profile_prints_merged_hotspots(self, spec_file,
                                                     tmp_path, capsys):
        ledger = str(tmp_path / "prof.jsonl")
        argv = ["campaign", spec_file, "--grid", "q.depth=1,4",
                "--cycles", "30", "--workers", "0", "--retries", "0",
                "--ledger", ledger, "--profile"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign hot spots across 2 profiled runs" in out

        # The profile rides the ledger: --report replays it without running.
        assert main(["campaign", "--ledger", ledger, "--report"]) == 0
        out = capsys.readouterr().out
        assert "campaign hot spots across 2 profiled runs" in out

class TestOptFlag:
    def test_run_opt_2_matches_default_report(self, spec_file, capsys,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_OPT", raising=False)
        assert main(["run", spec_file, "--cycles", "20", "--opt", "0"]) == 0
        base = capsys.readouterr().out
        assert "opt=0" in base
        assert main(["run", spec_file, "--cycles", "20", "--opt", "2"]) == 0
        out = capsys.readouterr().out
        assert "opt=2" in out
        # Optimization is observationally invisible: same stats block.
        assert base.replace("opt=0", "opt=2") == out

    def test_env_var_sets_default_level(self, spec_file, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "1")
        assert main(["run", spec_file, "--cycles", "10"]) == 0
        assert "opt=1" in capsys.readouterr().out

    def test_profile_accepts_opt(self, spec_file, capsys):
        assert main(["profile", spec_file, "--cycles", "10",
                     "--opt", "2"]) == 0
        assert "hot instances" in capsys.readouterr().out


class TestOptCommand:
    def test_summary_line(self, spec_file, capsys):
        assert main(["opt", spec_file]) == 0
        out = capsys.readouterr().out
        assert "--opt 2" in out
        assert "schedule" in out and "react calls/step" in out
        assert "dead wire(s) parked" in out
        assert "specialized" not in out
        assert "static" not in out and "control(s)" not in out

    def test_level_0_reports_disabled(self, spec_file, capsys):
        assert main(["opt", spec_file, "--level", "0"]) == 0
        assert "pipeline disabled" in capsys.readouterr().out

    def test_explain_names_the_pass_run(self, spec_file, capsys):
        assert main(["opt", spec_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "optimizer report" in out
        assert "passes run: dead-code" in out
        assert "specializ" not in out
        assert "static" not in out and "controls inlined" not in out

    def test_builder_target(self, capsys):
        assert main(["opt", "--builder",
                     "repro.systems.fig2d:build_fig2d",
                     "--param", "n_sensors=2"]) == 0
        out = capsys.readouterr().out
        assert "instance(s) eliminated" in out

    def test_env_var_supplies_level(self, spec_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "1")
        assert main(["opt", spec_file]) == 0
        assert "--opt 1" in capsys.readouterr().out

    def test_missing_spec_exits_2(self, capsys):
        assert main(["opt"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
