"""Time OSH refinement (osh.finetune_osh) on the fits a query stream makes.

For each seed given, the script sets up perfbench's query-adversarial
workload: the adversarial preset (5 blocks clusters of 200 Gaussians and
their look-alikes), its oracle model, --cameras orbit cameras and every
label on each, with synth.oracle_mask as the pseudo-mask. It asks each
(camera, label) once with OSH and keeps the entries and the per-entry
pixel counts outside and inside the pseudo-mask that the query hands to
finetune_osh. Then it times every kept fit --repeats times and prints,
per seed, the median and quartiles of ms per fit and the mean number of
loss evaluations per fit:

    python3 scripts/osh_timing.py 0 1 2

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
import tempfile
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from goi import osh, query  # noqa: E402
from workloads import QueryAdversarial  # noqa: E402


def collect_fits(seed: int, n_cameras: int) -> list:
    """The (h0, x, neg, pos) of every refined query in the stream."""
    workload = QueryAdversarial()
    workload.n_cameras = n_cameras
    with tempfile.TemporaryDirectory() as tmp:
        state = workload.setup(seed, Path(tmp))
    fits = []

    def record(h0, x, neg, pos, cfg=None):
        fits.append((h0, x, neg, pos))
        return osh.finetune_osh(h0, x, neg, pos, cfg)

    query.finetune_osh = record
    try:
        for cam, masks in zip(state.cams, state.masks):
            for emb, mask in zip(state.labeled.cluster_embeddings, masks):
                query.open_vocab_query(state.model, cam, emb, mask)
    finally:
        query.finetune_osh = osh.finetune_osh
    return fits


def loss_evals(fits: list) -> list:
    """Loss evaluations each fit makes, counted in one untimed pass."""
    loss_and_grad, calls = osh.osh_loss_and_grad, [0]

    def counted(*args):
        calls[0] += 1
        return loss_and_grad(*args)

    osh.osh_loss_and_grad = counted
    try:
        counts = []
        for fit in fits:
            calls[0] = 0
            osh.finetune_osh(*fit)
            counts.append(calls[0])
    finally:
        osh.osh_loss_and_grad = loss_and_grad
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--cameras", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    for seed in args.seeds:
        fits = collect_fits(seed, args.cameras)
        evals = loss_evals(fits)
        times = []
        for _ in range(args.repeats):
            for fit in fits:
                start = perf_counter()
                osh.finetune_osh(*fit)
                times.append(1e3 * (perf_counter() - start))
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        print(f"seed {seed}: median {med:.3f} ms per fit (quartiles "
              f"{q1:.3f}, {q3:.3f}; {len(fits)} fits x {args.repeats}), "
              f"{np.mean(evals):.1f} loss evaluations per fit")


if __name__ == "__main__":
    main()
