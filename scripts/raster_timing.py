"""Time rasterizer.composite_weights on blocks scenes of given sizes.

Each size is a Gaussian count, split evenly over the five clusters of a
`blocks` scene of seed SEED, viewed by one orbit camera at 128x128 (the
edit-large camera, fx = 120). For each size the script calls
composite_weights once to warm up, then prints the median and quartiles
of CALLS timed calls in ms, the median of CALLS timed calls of its
projection step, project_all, the nnz of the weight matrix, and the peak
memory traced by tracemalloc over one further, untimed call:

    python3 scripts/raster_timing.py 10000 100000

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
import tracemalloc
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from goi.rasterizer import composite_weights, project_all  # noqa: E402
from goi.synth import generate_scene, orbit_cameras  # noqa: E402

CLUSTERS = 5
SIZE = 128
CALLS = 5
SEED = 0


def timed_ms(fn, *args):
    """(last result, list of CALLS wall times in ms) of fn(*args)."""
    times = []
    for _ in range(CALLS):
        start = perf_counter()
        result = fn(*args)
        times.append(1e3 * (perf_counter() - start))
    return result, times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gaussians", nargs="+", type=int,
                        help="Gaussian count, e.g. 10000")
    args = parser.parse_args()
    cam = orbit_cameras(1, height=5.5, width=SIZE, image_height=SIZE,
                        fx=SIZE * 60.0 / 64.0, phase=0.3)[0]
    for n in args.gaussians:
        scene = generate_scene("blocks", CLUSTERS, n // CLUSTERS,
                               SEED).scene
        composite_weights(scene, cam)
        weights, times = timed_ms(composite_weights, scene, cam)
        _, project_times = timed_ms(project_all, scene, cam)
        tracemalloc.start()
        composite_weights(scene, cam)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        print(f"{len(scene)} Gaussians: median {med:.1f} ms per call "
              f"(quartiles {q1:.1f}, {q3:.1f}; {CALLS} calls), "
              f"project_all median {np.median(project_times):.1f} ms, "
              f"nnz {weights.nnz}, peak traced {peak / 2 ** 20:.1f} MB")


if __name__ == "__main__":
    main()
