"""The scripts in scripts/ must still run against the package.

Nothing else runs them, so a rename in goi would only show when someone
next measures. Each runs here in a subprocess, at tiny sizes, and must
print one result line per size (or per stage) it was given.

pairs.py runs every kernel with a snapshot of the checkout's src/ as its
base, so both trees are the same code, committed or not, and must report
the same work facts: raster's nnz and traced peak, osh's fits, loss
evaluations and signed rows per fit. It runs in a
subprocess because a second goi tree imported into pytest would leave
later tests with exception classes of the wrong tree. A bad revision,
kernel or size, or a size a tree rejects, must end it with one stderr
line naming the value, and
each run must remove its temporary files, the extracted base tree among
them. output_digest.py, which checks that two checkouts write the same
bytes, runs every command on three presets, so here only its synth step
runs and its later commands are parsed.
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


def run_pairs(tmp_path, *argv):
    """Run pairs.py with TMPDIR at tmp_path, which it must leave empty."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / "pairs.py"), *argv],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "TMPDIR": str(tmp_path)})
    assert list(tmp_path.iterdir()) == []   # the base tree is removed
    return proc


def snapshot(index_dir):
    """A git tree of src/ as it is on disk, built in a scratch index.

    HEAD would lag the checkout while src/ has uncommitted changes; the
    real index and every ref are left as they were.
    """
    env = {**os.environ, "GIT_INDEX_FILE": str(index_dir / "index")}
    git = ["git", "-C", str(SCRIPTS.parent)]
    subprocess.run([*git, "add", "--all", "--", "src"], env=env, check=True)
    return subprocess.run([*git, "write-tree"], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


TIMES = (r"base \d+\.\d{3} ms, checkout \d+\.\d{3} ms, ratio \d+\.\d{3}, "
         r"checkout faster in [012]/2 pairs \(sign test p "
         r"(?:0\.500|1\.000)\), base quartiles \d+\.\d{3} \d+\.\d{3} ms")
FACTS = {"raster": r"nnz \d+, peak traced \d+\.\d MB",
         "osh": r"48 fits, \d+ with the rate capped by the bound, "
                r"\d+(?:\.5)? signed rows per fit"}


@pytest.mark.parametrize("kernel, sizes", [
    ("raster", ["100", "500"]), ("project", ["100"]),
    ("loss", ["8x3x16", "4x2x8"]), ("osh", ["0", "1"]), ("kmeans", ["200"]),
    ("train", ["2"]), ("query", ["100"])])
def test_pairs_prints_one_line_per_size(tmp_path, tmp_path_factory, kernel,
                                        sizes):
    base = snapshot(tmp_path_factory.mktemp("index"))
    proc = run_pairs(tmp_path, "--base", base, "--pairs", "2", kernel, *sizes)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(sizes)
    for line, size in zip(lines, sizes):
        head = re.escape(f"{kernel} {size}: ") + TIMES
        if kernel not in FACTS:
            assert re.fullmatch(head, line), line
            continue
        # both trees run the same code, so they do the same work
        facts = re.fullmatch(rf"{head}; base: ({FACTS[kernel]}); "
                             rf"checkout: ({FACTS[kernel]})", line)
        assert facts and facts[1] == facts[2], line


@pytest.mark.parametrize("argv, bad", [
    (["--base", "no-such-revision", "loss", "8x3x16"], "no-such-revision"),
    (["--base", "HEAD", "lose", "8x3x16"], "lose"),
    (["--base", "HEAD", "loss", "8x3"], "8x3"),
    (["--base", "HEAD", "loss", "8x1x16"], "8x1x16"),
    (["--base", "HEAD", "raster", "-5"], "-5"),
    (["--base", "HEAD", "--pairs", "0", "raster", "100"], "0"),
    (["--base", "HEAD", "kmeans", "2"], "2")])
def test_pairs_bad_argument_is_one_line_naming_it(tmp_path, argv, bad):
    proc = run_pairs(tmp_path, *argv)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert repr(bad) in proc.stderr, proc.stderr


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
