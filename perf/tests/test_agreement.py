"""Two full sets of runs of the same code agree within the bounds.

Takes about four minutes.  Outside ``testpaths``; run with
``python -m pytest perf/tests``.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")


def test_two_sets_agree_within_bounds():
    proc = subprocess.run(
        [sys.executable, RUN, "--repeat", "2", "--check-agreement"],
        text=True, stdout=subprocess.PIPE, timeout=1800)
    assert proc.returncode == 0, proc.stdout
    assert "DISAGREE" not in proc.stdout
