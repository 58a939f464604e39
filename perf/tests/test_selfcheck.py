"""The benchmark checks itself: names, counts, and that it can fail.

Outside ``testpaths``; run with ``python -m pytest perf/tests``.
"""

import json
import os
import subprocess
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(PERF, "run.py")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], text=True,
                          stdout=subprocess.PIPE, timeout=600)


def test_selfcheck_names_counts_and_small_runs():
    proc = run("--selfcheck")
    assert proc.returncode == 0, proc.stdout
    assert "selfcheck: ok" in proc.stdout


def test_perturbed_golden_digest_fails_the_run(tmp_path):
    with open(os.path.join(PERF, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["workloads"]["solo_ooo"]["sieve"] = "0" * 16
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden), encoding="utf-8")
    out = tmp_path / "record.json"
    proc = run("--workload", "solo_ooo", "--seconds", "1",
               "--golden", str(bad), "--json", str(out))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert proc.returncode != 0
    assert record["reference"] == "golden"
    assert record["failed"] > 0 and record["failed_share"] > 0
    assert not json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_other_seed_is_checked_against_a_live_reference(tmp_path):
    out = tmp_path / "record.json"
    proc = run("--workload", "solo_ooo", "--seed", "3", "--seconds", "1",
               "--json", str(out))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert proc.returncode == 0, proc.stdout
    assert record["reference"] == "live"
    assert record["correct"] and record["failed"] == 0
    assert any("5 live" in note for note in record["notes"])
