"""Time each stage of the goi command line and read its peak memory.

Runs the first five commands of output_digest.py's pipeline (synth,
init-codebook, train, eval and eval --no-osh) on one preset and seed in
a temporary directory, each stage in its own process, so that each peak
resident set size is that stage's alone. Prints one line per stage with
its wall time and the peak RSS the kernel reports for that process:

    python3 scripts/stage_profile.py --preset blocks5 --seed 0

--iterations is passed to train (its default schedule if not given).
The package is imported from src/ beside this directory. Every stage
runs with OPENBLAS_NUM_THREADS=1, as perfbench does, so two checkouts
compare on one core. The stages' own output goes to stderr.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from output_digest import pipeline

SRC = Path(__file__).resolve().parent.parent / "src"
STAGES = ("synth", "init-codebook", "train", "eval", "eval --no-osh")


def run_stage(argv: list[str], env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of `python -m goi.cli *argv`."""
    start = perf_counter()
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-m", "goi.cli", *argv], env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    _, status, usage = os.wait4(pid, 0)
    seconds = perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"goi {argv[0]} exited with {code}")
    return seconds, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="blocks5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="training iterations (default: train's own)")
    args = parser.parse_args()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with tempfile.TemporaryDirectory() as d:
        for name, argv in zip(STAGES, pipeline(Path(d), args.preset,
                                               args.seed)):
            if name == "train" and args.iterations is not None:
                argv += ["--iterations", str(args.iterations)]
            seconds, peak = run_stage(argv, env)
            print(f"{name}: {seconds:.2f} s, peak {peak:.1f} MB", flush=True)


if __name__ == "__main__":
    main()
