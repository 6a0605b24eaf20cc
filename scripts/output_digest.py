"""Digest every file the goi command line writes for one seed.

For each of the presets blocks5, rings3 and adversarial, runs the
pipeline through goi.cli.run in a temporary directory: synth,
init-codebook, default train, eval with and without OSH, render, query
on three test cases with and without OSH (every output), and manipulate
with each action. Prints "sha256  relative/path" for every file written,
sorted by path, then the captured stdout with the directory removed.
Two checkouts write byte-equal outputs when a diff of their prints is
empty:

    python3 scripts/output_digest.py --seed 0 > a.txt

The package is imported from src/ beside this directory. Trained models
depend on the BLAS thread count, so the script sets
OPENBLAS_NUM_THREADS=1 itself, before numpy is imported, whatever the
environment says.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from goi.cli import run  # noqa: E402

PRESETS = ("blocks5", "rings3", "adversarial")
ACTIONS = {"delete": [], "extract": [], "translate": ["--delta", "0.5,0,-0.25"],
           "highlight": ["--color", "1,0.5,0"]}


def pipeline(d: Path, preset: str, seed: int):
    """Yield the argument lists of one preset's run in directory d."""
    exp, model = d / "exp", str(d / "model")
    yield ["synth", "--preset", preset, "--out", str(exp), "--seed", str(seed)]
    yield ["init-codebook", "--manifest", str(exp / "train_manifest.json"),
           "--out", str(d / "codebook.goic"), "--seed", str(seed)]
    yield ["train", "--scene", str(exp / "scene.gois"),
           "--manifest", str(exp / "train_manifest.json"),
           "--codebook", str(d / "codebook.goic"), "--out", model,
           "--seed", str(seed)]
    for mode, flags in (("osh", []), ("fixed", ["--no-osh"])):
        yield ["eval", "--model", model, "--testset", str(exp / "testset.json"),
               "--out", str(d / f"report_{mode}.json"), *flags]
    yield ["render", "--model", model, "--camera", str(exp / "cam_eval_0.json"),
           "--out-rgb", str(d / "render/rgb.ppm"),
           "--out-feat", str(d / "render/features.goif"),
           "--out-alpha", str(d / "render/alpha.pgm")]
    cases = json.loads((exp / "testset.json").read_text())["cases"]
    for i in (0, len(cases) // 2, len(cases) - 1):
        case = cases[i]
        for mode, flags in (("osh", []), ("fixed", ["--no-osh"])):
            out = d / f"query_{i}_{mode}"
            yield ["query", "--model", model,
                   "--camera", str(exp / case["camera"]),
                   "--text", case["text"],
                   "--embeddings", str(exp / "embeddings.json"),
                   "--pseudo-mask", str(exp / case["pseudo_mask"]),
                   "--out-mask", str(out / "mask.pgm"),
                   "--out-overlay", str(out / "overlay.ppm"),
                   "--out-goi", str(out / "goi.json"),
                   "--out-hyperplane", str(out / "hyperplane.json"), *flags]
    for action, flags in ACTIONS.items():
        yield ["manipulate", "--scene", str(d / "model/scene.gois"),
               "--goi", str(d / "query_0_osh/goi.json"), "--action", action,
               "--out", str(d / f"manipulate/{action}.gois"), *flags]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for preset in PRESETS:
            for argv in pipeline(root / preset, preset, args.seed):
                with contextlib.redirect_stdout(stdout):
                    code = run(argv)
                if code != 0:
                    print(f"goi {' '.join(argv)} exited {code}",
                          file=sys.stderr)
                    return 1
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
        print(stdout.getvalue().replace(tmp, "<dir>"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
