"""The timing scripts in scripts/ must still run against the package.

Nothing else runs them, so a rename in goi would only show when someone
next measures. Each runs here in a subprocess, at tiny sizes, and must
print one result line per size it was given.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, sizes, prefix", [
    ("raster_timing.py", ["100", "500"], "{} Gaussians: median "),
    ("loss_timing.py", ["8x3x16", "4x2x8"], "{}: median ")])
def test_prints_one_line_per_size(script, sizes, prefix):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *sizes],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(sizes)
    for line, size in zip(lines, sizes):
        assert line.startswith(prefix.format(size)), line
