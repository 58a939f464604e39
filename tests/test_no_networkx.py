"""The runtime needs no networkx: only the tests use it, as a reference."""

import subprocess
import sys

#: Runs with networkx made unimportable: an ``import networkx`` anywhere
#: would raise, and a guarded one would leave its submodules behind.
SCRIPT = r"""
import runpy, sys
sys.modules["networkx"] = None

import repro, repro.campaign, repro.fabric, repro.systems, repro.analysis
from repro import build_simulator
from repro.systems.fig2d import build_fig2d

sim = build_simulator(build_fig2d()[0], opt=2)
sim.run(100)
assert sim.now == 100, sim.now

sys.argv = ["repro", "check", "--builder",
            "repro.systems.fig2d:build_fig2d", "--explain-schedule"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
assert sys.modules["networkx"] is None
assert not [m for m in sys.modules if m.startswith("networkx.")]
print("networkx stayed out")
"""


def test_runtime_imports_and_runs_without_networkx():
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "levelization depth (critical path)" in result.stdout
    assert result.stdout.rstrip().endswith("networkx stayed out")
