"""Smoke test: each demo runs to completion against the package as it is,
so a change that renames or drops a public name a demo imports fails here."""

import os
import subprocess
import sys

import pytest

from test_config_io import child_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script, args", [("barrier_scattering.py", ["--small"]),
                                          ("free_packet_1d.py", []),
                                          ("stability_regimes.py", [])])
def test_demo_runs(tmp_path, script, args):
    # from tmp_path, so a plot written where matplotlib is installed lands there
    # as run_cli does: a leaked RuntimeWarning fails the demo
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                             os.path.join(DEMOS, script), *args],
                            capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert result.returncode == 0, result.stderr
