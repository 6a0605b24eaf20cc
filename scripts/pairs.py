"""Time one goi kernel on two source trees, in alternating pairs.

    python3 scripts/pairs.py --base REV [--pairs N] KERNEL SIZE...

REV's src/, extracted by `git archive` into a temporary directory, and
the checkout's src/ as it is on disk are imported, each with goi modules
of its own. The checkout builds each size's inputs once; each tree
rebuilds them with its own constructors. On one BLAS thread, each tree
makes an untimed warm-up call, then N pairs (default 10) time one call
per tree, the first tree alternating. Each size prints each tree's
median ms, their ratio, the pairs the checkout won and their two-sided
sign-test p, the base's quartiles and each tree's work facts. A gain
needs 9 of 10 pairs won and a median gap above the base's interquartile
range (README.md says when 10 pairs are too few). KERNEL SIZE (examples):

  raster  Gaussians (10000 100000): composite_weights, edit-large's view
  project Gaussians (10000 100000): project_all of the same view
  loss    BxNxD_high (340x6x256 4096x300x256): total_loss, random batch
  osh     seed (0 1 2): finetune_osh on query-adversarial's 48 fits
  kmeans  samples (20000): kmeans_init on blocks5 ground-truth rows
  train   iterations (1500): train_semantic_field on blocks5
  query   Gaussians (10000): fixed-threshold query from an unseen view
"""

import argparse
import importlib
import itertools
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter
from unittest import mock

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("codebook", "metrics", "osh", "query", "rasterizer", "scene",
           "synth", "trainer")   # every goi module perfbench imports
SEED = 0


def ints(token: str, least: tuple) -> tuple:
    """The x-separated integers of token, each at least its bound."""
    fields = token.split("x")
    if len(fields) != len(least) or not all(
            f.isdecimal() and int(f) >= lo for f, lo in zip(fields, least)):
        raise ValueError(f"expected integers of at least "
                         f"{'x'.join(map(str, least))}, got {token!r}")
    return tuple(map(int, fields))


def extract(rev: str, into: Path) -> Path:
    """The src/ directory of revision rev, extracted under into."""
    tar = into / "src.tar"
    proc = subprocess.run(["git", "-C", str(ROOT), "archive",
                           f"--output={tar}", "--end-of-options", rev, "src"],
                          capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"pairs.py: error: no src/ at revision {rev!r}: "
                 + " ".join(proc.stderr.split()))
    with tarfile.open(tar) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def load(src: Path):
    """The goi package of the tree under src, imported afresh."""
    for name in [n for n in sys.modules if n.split(".")[0] == "goi"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    for name in MODULES:
        importlib.import_module(f"goi.{name}")
    sys.path.remove(str(src))
    return sys.modules["goi"]


def blocks(g, n: int):
    return g.synth.generate_scene("blocks", 5, n // 5, SEED)


def view(g, phase: float = 0.3):   # edit-large's 128x128 orbit camera
    return g.synth.orbit_cameras(1, height=5.5, width=128, image_height=128,
                                 fx=120.0, phase=phase)[0]


def blocks5(g, m: int) -> tuple:
    """blocks5's scene, 64x64 views (20, or more if m needs) and m rows."""
    labeled = blocks(g, 1000)
    cams = g.synth.orbit_cameras(max(-(-m // 4096), g.synth.N_TRAIN_VIEWS))
    views = [(cam, g.synth.generate_gt_features(labeled, cam, seed=SEED,
                                                view_id=i))
             for i, cam in enumerate(cams)]
    rows = np.concatenate([gt.reshape(-1, gt.shape[2]) for _, gt in views])
    pick = np.random.default_rng(SEED).choice(len(rows), m, replace=False)
    return labeled.scene, views, rows[pick]


def raster(goi, n: int, step: str = "composite_weights"):
    scene, cam = blocks(goi, n).scene, view(goi)

    def bind(g):
        call = partial(getattr(g.rasterizer, step),
                       g.scene.Scene(*scene.arrays()),
                       g.scene.Camera(**vars(cam)))

        def facts():
            tracemalloc.start()
            nnz = call().nnz
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return f"nnz {nnz}, peak traced {peak / 2 ** 20:.1f} MB"
        return call, facts if step == "composite_weights" else None
    return bind


def loss(goi, bsz: int, n: int, d_high: int):
    rng = np.random.default_rng([bsz, n, d_high, SEED])
    u = rng.normal(size=(bsz, d_high))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    fhat, entries = rng.normal(size=(bsz, 10)), rng.normal(size=(n, d_high))
    weight, bias = rng.normal(size=(n, 10)), rng.normal(size=n)
    return lambda g: (partial(
        g.codebook.total_loss, u.copy(), fhat.copy(),
        g.codebook.Codebook(entries.copy()),
        g.codebook.Decoder(weight.copy(), bias.copy()), 2.0), None)


def osh(goi, seed: int):
    from workloads import QueryAdversarial
    with tempfile.TemporaryDirectory() as tmp:
        state = QueryAdversarial().setup(seed, Path(tmp))
    with mock.patch.object(goi.query, "finetune_osh",
                           wraps=goi.osh.finetune_osh) as spy:
        for cam, masks in zip(state.cams, state.masks):
            for emb, mask in zip(state.labeled.cluster_embeddings, masks):
                goi.query.open_vocab_query(state.model, cam, emb, mask)

    def bind(g):   # each fit as the stream's query handed it over
        fits = [(g.osh.Hyperplane(h0.weight, h0.bias), x, neg, pos)
                for (h0, x, neg, pos), _ in spy.call_args_list]

        def call():
            for fit in fits:
                g.osh.finetune_osh(*fit)

        def facts():   # a fit's rate is capped where STEP_RATE * bound >= 2
            bound = g.osh.hessian_bound
            with mock.patch.object(g.osh, "hessian_bound",
                                   wraps=bound) as bounds:
                call()
            seen = [args for args, _ in bounds.call_args_list]  # gram, weights
            capped = sum(g.osh.STEP_RATE * bound(*a) >= 2.0 for a in seen)
            return (f"{len(fits)} fits, {capped} with the rate capped by the "
                    f"bound, {np.median([len(a[0]) for a in seen]):g} "
                    "signed rows per fit")
        return call, facts
    return bind


def kmeans(goi, m: int):
    rows = blocks5(goi, m)[2]
    return lambda g: (partial(g.codebook.kmeans_init, rows.copy(), 300, 10,
                              SEED), None)


def train(goi, iterations: int):
    scene, views, rows = blocks5(goi, 20_000)
    entries = goi.codebook.kmeans_init(rows, 300, 10, SEED).entries
    return lambda g: (partial(
        g.trainer.train_semantic_field, g.scene.Scene(*scene.arrays()),
        g.trainer.Dataset([(g.scene.Camera(**vars(cam)), gt.copy())
                           for cam, gt in views], entries.shape[1]),
        g.codebook.Codebook(entries.copy()),
        g.trainer.TrainConfig(iterations=iterations, seed=SEED)), None)


def query(goi, n: int):
    from oracle import build_oracle_model
    from workloads import GOLDEN_ANGLE
    labeled = blocks(goi, n)
    model = build_oracle_model(labeled, seed=SEED)

    def bind(g):   # every call, the warm-up too, builds a view not seen yet
        mine = g.trainer.TrainedModel(
            g.scene.Scene(*model.scene.arrays()),
            g.codebook.Codebook(model.codebook.entries),
            g.codebook.Decoder(model.decoder.weight, model.decoder.bias))
        steps = itertools.count()
        return lambda: g.query.open_vocab_query(
            mine, view(g, 0.3 + next(steps) * GOLDEN_ANGLE),
            labeled.cluster_embeddings[0], use_osh=False), None
    return bind


KERNELS = {   # name: (inputs built by the checkout, each size field's least)
    "raster": (raster, (5,)), "loss": (loss, (1, 2, 1)), "osh": (osh, (0,)),
    "project": (partial(raster, step="project_all"), (5,)),
    "kmeans": (kmeans, (2,)), "train": (train, (0,)), "query": (query, (5,))}


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p of wins against losses, ties dropped."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(bind, trees: dict, pairs: int, name: str) -> str:
    """The result line of one size, timed over `pairs` pairs."""
    calls, facts = {}, {}
    for side in trees:   # base first
        calls[side], fact = bind(trees[side])
        try:
            calls[side]()   # untimed warm-up
        except trees[side].errors.GOIError as e:   # the tree rejects it
            sys.exit(f"pairs.py: error: {name}: {side}: {e}")
        facts[side] = fact() if fact else None
    times = {side: [] for side in trees}
    for i in range(pairs):
        for side in list(trees)[::-1] if i % 2 else trees:
            start = perf_counter()
            calls[side]()
            times[side].append(1e3 * (perf_counter() - start))
    base, mine = (np.array(times[side]) for side in trees)
    q1, q3 = np.percentile(base, [25, 75])
    wins = int(np.sum(mine < base))
    line = (f"base {np.median(base):.3f} ms, checkout {np.median(mine):.3f} "
            f"ms, ratio {np.median(mine) / np.median(base):.3f}, checkout "
            f"faster in {wins}/{pairs} pairs (sign test p "
            f"{sign_test(wins, int(np.sum(mine > base))):.3f}), base "
            f"quartiles {q1:.3f} {q3:.3f} ms")
    return line + "".join(f"; {side}: {facts[side]}" for side in trees
                          if facts[side])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--pairs", default="10", metavar="N")
    parser.add_argument("kernel", metavar="KERNEL")
    parser.add_argument("sizes", nargs="+", metavar="SIZE")
    args = parser.parse_args()
    if args.kernel not in KERNELS:
        sys.exit(f"pairs.py: error: no kernel {args.kernel!r} in "
                 + ", ".join(KERNELS))
    build, least = KERNELS[args.kernel]
    try:
        (pairs,) = ints(args.pairs, (1,))
        sizes = [ints(token, least) for token in args.sizes]
    except ValueError as e:   # one line, naming the value
        sys.exit(f"pairs.py: error: {e}")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"base": load(extract(args.base, Path(tmp)))}
        trees["checkout"] = load(ROOT / "src")
        sys.path.insert(0, str(ROOT / "perfbench"))
        for token, size in zip(args.sizes, sizes):
            line = compare(build(trees["checkout"], *size), trees, pairs,
                           f"{args.kernel} {token!r}")
            print(f"{args.kernel} {token}: {line}", flush=True)


if __name__ == "__main__":
    main()
