"""Command-line front end for the full pipeline.

Every subcommand is a thin wrapper over the library, writing files
byte-equal to its direct calls; run maps what one raises to exit codes:
0 success, 1 usage error, 2 data/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import query as query_mod
from . import synth as synth_mod
from .errors import EmptyFitError, GOIError, NumericError, ValidationError
from .formats import (_naming, json_is, read_json, read_mask,
                      write_feature_map, write_json, write_mask, write_pgm,
                      write_ppm)
from .osh import DEFAULT_THRESHOLD, EmbeddingTable
from .rasterizer import render
from .scene import (DEFAULT_FEATURE_DIM, import_ply, load_camera, load_scene,
                    save_scene)
from .codebook import (DEFAULT_ENTRIES, KMEANS_ITERS, kmeans_init,
                       load_codebook, save_codebook)
from .trainer import (Dataset, TrainConfig, load_model, save_model,
                      train_semantic_field)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code contract for bad usage."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _print_config(args: argparse.Namespace) -> None:
    shown = {k: v for k, v in sorted(vars(args).items())
             if k != "func" and v is not None}
    print("config:", json.dumps(shown, default=str))


def _index_list(value, count: int) -> np.ndarray:
    """The "indices" of a --goi file: JSON integers in [0, count)."""
    indices = value["indices"]
    if not isinstance(indices, list) or not json_is(int, *indices):
        raise TypeError("Gaussian indices must be a list of integers")
    return query_mod.index_array(indices, count)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_import_ply(args) -> None:
    scene = import_ply(args.input, feature_dim=args.feature_dim)
    save_scene(scene, args.out)
    print(f"imported {len(scene)} Gaussians -> {args.out}")


def _samples(args) -> np.ndarray:
    """The manifest's feature rows, float32, at most --max-samples of them."""
    samples = np.concatenate([gt.reshape(-1, gt.shape[2]) for _, gt
                              in Dataset.load_manifest(args.manifest).views])
    if samples.shape[0] > args.max_samples:
        samples = samples[np.random.default_rng(args.seed).choice(
            samples.shape[0], size=args.max_samples, replace=False)]
    return samples


def cmd_init_codebook(args) -> None:
    samples = [_samples(args)]  # popped below: k-means gets the only reference
    with _naming(args.manifest):
        cb = kmeans_init(samples.pop(), n_entries=args.entries,
                         iters=args.iters, seed=args.seed)
    save_codebook(cb, args.out)
    print(f"codebook with {cb.n_entries} entries -> {args.out}")


def cmd_train(args) -> None:
    flags = {k: v for k, v in (("seed", args.seed),
                               ("iterations", args.iterations))
             if v is not None}
    cfg = (read_json(args.config, "training config",
                     lambda d: TrainConfig.from_dict({**d, **flags}))
           if args.config else TrainConfig.from_dict(flags))
    model = train_semantic_field(load_scene(args.scene),
                                 Dataset.load_manifest(args.manifest),
                                 load_codebook(args.codebook), cfg,
                                 log=lambda msg: print(msg, flush=True))
    save_model(model, args.out)
    print(f"trained model -> {args.out}")


def cmd_render(args) -> None:
    if not (args.out_rgb or args.out_feat or args.out_alpha):
        raise UsageError("render: no output requested")
    out = render(load_model(args.model).scene, load_camera(args.camera))
    if args.out_rgb:
        write_ppm(args.out_rgb, out.rgb)
    if args.out_feat:
        write_feature_map(args.out_feat, out.ld_features)
    if args.out_alpha:
        write_pgm(args.out_alpha, out.alpha)


def cmd_query(args) -> None:
    use_osh = not args.no_osh
    if use_osh and not args.pseudo_mask:
        raise UsageError("query: OSH refinement needs --pseudo-mask "
                         "(or pass --no-osh)")
    model = load_model(args.model)
    cam = load_camera(args.camera)
    emb = EmbeddingTable.load(args.embeddings).lookup(args.text)
    pseudo = read_mask(args.pseudo_mask) if args.pseudo_mask else None
    rendered = render(model.scene, cam)  # serves the overlay and the query
    query_mod.store_render(model, cam, rendered)
    try:
        result = query_mod.open_vocab_query(
            model, cam, emb, pseudo, use_osh=use_osh, threshold=args.threshold)
    except EmptyFitError as e:
        raise ValidationError(
            f"camera {args.camera} sees no surface pixel to fit the "
            "hyperplane on; --no-osh queries the view without refinement"
        ) from e
    write_mask(args.out_mask, result.mask)
    if args.out_overlay:
        write_ppm(args.out_overlay,
                  query_mod.overlay_image(rendered.rgb, result.mask))
    if args.out_goi:
        write_json(args.out_goi,
                   {"indices": [int(i) for i in result.goi_indices]})
    if args.out_hyperplane:
        result.hyperplane.to_json(args.out_hyperplane)
    print(f"query {args.text!r}: {int(result.mask.sum())} positive "
          f"pixels, {result.goi_indices.size} Gaussians")


def cmd_manipulate(args) -> None:
    if args.action == "translate" and args.delta is None:
        raise UsageError("manipulate: translate requires --delta x,y,z")
    if args.action == "highlight" and args.color is None:
        raise UsageError("manipulate: highlight requires --color r,g,b")
    scene = load_scene(args.scene)
    indices = read_json(args.goi, "Gaussian index list",
                        lambda d: _index_list(d, len(scene)))
    out = query_mod.manipulate(scene, indices, args.action,
                               delta=args.delta, color=args.color)
    save_scene(out, args.out)
    print(f"{args.action}: {len(scene)} -> {len(out)} Gaussians")


def cmd_eval(args) -> None:
    model = load_model(args.model)
    cases = metrics_mod.load_testset(args.testset)
    exp_dir = Path(args.testset).parent
    table = EmbeddingTable.load(exp_dir / synth_mod.EMBEDDINGS_FILE
                                if args.embeddings is None else args.embeddings)
    result = metrics_mod.evaluate(model, cases, table,
                                  use_osh=not args.no_osh,
                                  threshold=args.threshold)
    metrics_mod.write_report(result, args.out)
    print(f"mIoU {result.miou:.4f}  mPA {result.mpa:.4f}  mP {result.mp:.4f}")


def cmd_synth(args) -> None:
    exp = synth_mod.write_experiment(args.preset, args.seed, args.out)
    print(f"experiment {args.preset!r} (seed {args.seed}) -> {exp.directory}")


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------

def _finite(count: int):  # an argparse type: count numbers, by commas
    def parse(text: str):
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:  # not a number
            values = []
        if len(values) != count or not np.all(np.isfinite(values)):
            raise argparse.ArgumentTypeError(
                f"expected {count} finite number(s), got {text!r}")
        return values[0] if count == 1 else values
    return parse


def _integer(least: int):  # an argparse type; no sign allowed
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {least}, got {text!r}")
        return int(text)
    return parse


def build_parser() -> Parser:
    parser = Parser(prog="goi",
                    description="Open-vocabulary semantic fields on frozen "
                                "3D Gaussian scenes")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    positive, natural = _integer(1), _integer(0)
    seed_help = "deterministic non-negative seed for this run"

    p = sub.add_parser("import-ply", help="import a vanilla 3DGS point file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-dim", type=positive, default=DEFAULT_FEATURE_DIM)
    p.set_defaults(func=cmd_import_ply)

    p = sub.add_parser("init-codebook",
                       help="spherical k-means codebook from GT feature maps")
    p.add_argument("--manifest", required=True)
    p.add_argument("--entries", type=_integer(2), default=DEFAULT_ENTRIES)
    p.add_argument("--iters", type=positive, default=KMEANS_ITERS)
    p.add_argument("--max-samples", type=positive, default=200_000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=natural, default=0, help=seed_help)
    p.set_defaults(func=cmd_init_codebook)

    p = sub.add_parser("train", help="optimize the semantic field")
    p.add_argument("--scene", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--config", default=None,
                   help="JSON file mirroring TrainConfig fields")
    p.add_argument("--iterations", type=natural, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=natural, default=None, help=seed_help)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("render", help="render rgb/features/alpha for a view")
    p.add_argument("--model", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--out-rgb")
    p.add_argument("--out-feat")
    p.add_argument("--out-alpha")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("query", help="open-vocabulary text query")
    p.add_argument("--model", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pseudo-mask")
    p.add_argument("--no-osh", action="store_true")
    p.add_argument("--threshold", type=_finite(1), default=DEFAULT_THRESHOLD)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--out-overlay")
    p.add_argument("--out-goi")
    p.add_argument("--out-hyperplane")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("manipulate", help="edit the selected Gaussians")
    p.add_argument("--scene", required=True)
    p.add_argument("--goi", required=True,
                   help="JSON file with {\"indices\": [...]}")
    p.add_argument("--action", required=True,
                   choices=["delete", "extract", "translate", "highlight"])
    p.add_argument("--delta", type=_finite(3),
                   help="x,y,z for translate; a negative x needs =, "
                        "as in --delta=-1,0,0")
    p.add_argument("--color", type=_finite(3),
                   help="r,g,b in [0, 1] for highlight; a value starting "
                        "with - needs =, as in --color=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_manipulate)

    p = sub.add_parser("eval", help="run the evaluation protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--testset", required=True)
    p.add_argument("--embeddings", default=None,
                   help="embedding table (defaults to the testset directory)")
    p.add_argument("--no-osh", action="store_true")
    p.add_argument("--threshold", type=_finite(1), default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="write a synthetic benchmark directory")
    p.add_argument("--preset", required=True,
                   choices=sorted(synth_mod.PRESETS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=natural, default=0, help=seed_help)
    p.set_defaults(func=cmd_synth)

    return parser


def run(argv=None) -> int:
    # a warning prints as one line, like an error; library callers keep
    # Python's default format
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        parser = build_parser()
        try:
            try:
                args = parser.parse_args(argv)
            except SystemExit as e:  # --help
                return int(e.code or 0)
            if not getattr(args, "command", None):
                parser.print_usage(sys.stderr)
                return EXIT_USAGE
            _print_config(args)
            args.func(args)
            return EXIT_OK
        except UsageError as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        except NumericError as e:
            print(f"numeric failure: {e}", file=sys.stderr)
            return EXIT_NUMERIC
        except (GOIError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
