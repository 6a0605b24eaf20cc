"""Time one codebook.total_loss call on random batches of given shapes.

Each shape is B x N x D_high (batch rows, codebook entries, target
width), with a 10-wide rendered feature. For each shape the script
builds one seeded random batch, calls total_loss once to warm up, then
prints the median and quartiles of CALLS timed calls, in ms:

    python3 scripts/loss_timing.py 340x6x256 340x300x256 4096x300x256

The package is imported from src/ beside this directory. The script
sets OPENBLAS_NUM_THREADS=1 itself, before numpy is imported, as
perfbench does, so two checkouts compare on one core. On a shared
machine the medians of one checkout can spread well over 1.5x from one
run to the next, so compare two checkouts by alternating their runs,
several of each, not by one run per checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from goi.codebook import Codebook, Decoder, total_loss  # noqa: E402

D_LOW = 10
CALLS = 200


def batch(bsz: int, n: int, d_high: int, seed: int = 0):
    rng = np.random.default_rng([bsz, n, d_high, seed])
    u = rng.normal(size=(bsz, d_high))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return (u, rng.normal(size=(bsz, D_LOW)),
            Codebook(entries=rng.normal(size=(n, d_high))),
            Decoder(weight=rng.normal(size=(n, D_LOW)),
                    bias=rng.normal(size=n)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="+", help="BxNxD_high, e.g. 340x6x256")
    args = parser.parse_args()
    for shape in args.shapes:
        u, fhat, cb, dec = batch(*(int(v) for v in shape.split("x")))
        total_loss(u, fhat, cb, dec, 2.0)
        times = []
        for _ in range(CALLS):
            start = perf_counter()
            total_loss(u, fhat, cb, dec, 2.0)
            times.append(1e3 * (perf_counter() - start))
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        print(f"{shape}: median {med:.3f} ms per call "
              f"(quartiles {q1:.3f}, {q3:.3f}; {CALLS} calls)")


if __name__ == "__main__":
    main()
