"""The timing scripts in scripts/ must still run against the package.

Nothing else runs them, so a rename in goi would only show when someone
next measures. Each runs here in a subprocess, at tiny sizes, and must
print one result line per size (or per stage) it was given.
output_digest.py, which checks that two checkouts write the same bytes,
runs every command on three presets, so here only its synth step runs and
its later commands are parsed.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from goi import cli

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


def test_stage_profile_prints_one_line_per_stage():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "stage_profile.py"),
                           "--iterations", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    stages = ["synth", "init-codebook", "train", "eval", "eval --no-osh"]
    assert [line.split(":")[0] for line in lines] == stages
    for line in lines:
        assert re.fullmatch(r"[a-z -]+: \d+\.\d\d s, peak \d+\.\d MB",
                            line), line


def test_osh_timing_prints_one_line_per_seed():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "osh_timing.py"),
                           "0", "1", "--cameras", "1", "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, seed in zip(lines, ["0", "1"]):
        assert re.fullmatch(
            rf"seed {seed}: median \d+\.\d{{3}} ms per fit \(quartiles "
            r"\d+\.\d{3}, \d+\.\d{3}; 6 fits x 1\), \d+\.\d loss "
            r"evaluations per fit", line), line


def test_output_digest_commands_still_parse(tmp_path, monkeypatch):
    # the script sets OPENBLAS_NUM_THREADS and sys.path when imported
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "output_digest", SCRIPTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    steps = digest.pipeline(tmp_path, "blocks5", 0)
    assert cli.run(next(steps)) == 0  # synth: later steps read its files
    parser = cli.build_parser()
    rest = [parser.parse_args(argv).command for argv in steps]
    assert rest[:3] == ["init-codebook", "train", "eval"]
    assert rest[-1] == "manipulate"
