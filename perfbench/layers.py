"""Which goi functions the traced run records, and the per-layer metrics.

A layer is one module of the package. The traced run wraps the public
functions below at every binding they are called through, takes counts
from their arguments and results, and turns the spans into the
``per_layer`` metrics of BENCHMARK.json. README.md in this directory
says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from goi.osh import OSHConfig
from goi.trainer import TrainConfig

from tracer import COUNTS, END, NAME, START, coverage, self_times, span_cost

LAYERS = ("rasterizer", "codebook", "trainer", "osh", "query", "scene",
          "synth", "metrics")

TRACED = (
    "rasterizer.composite_weights", "rasterizer.render",
    "codebook.kmeans_init", "codebook.total_loss",
    "trainer.train_semantic_field",
    "osh.finetune_osh", "osh.osh_loss_and_grad",
    "query.open_vocab_query", "query.decode_pixel_features",
    "query.select_goi", "query.manipulate",
    "scene.save_scene", "scene.load_scene",
    "synth.write_experiment", "synth.generate_scene",
    "synth.generate_adversarial_pair", "synth.oracle_mask",
    "metrics.evaluate", "metrics.iou", "metrics.load_testset",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _distinct_entries(args, kwargs, result):
    decoded, valid = result
    rows = decoded[valid]
    return {"distinct_entries": len({r.tobytes() for r in rows})}


COUNTERS = {
    "rasterizer.composite_weights":
        lambda a, k, r: {"pairs": r.nnz},
    "codebook.total_loss":
        lambda a, k, r: {"rows": np.shape(_arg(a, k, 0, "v_gt"))[0]},
    "trainer.train_semantic_field":
        lambda a, k, r: {"iterations":
                         (_arg(a, k, 3, "cfg") or TrainConfig()).iterations},
    "osh.finetune_osh":
        lambda a, k, r: {"valid_pixels":
                         int(np.count_nonzero(_arg(a, k, 2, "valid"))),
                         "steps": (_arg(a, k, 4, "cfg") or OSHConfig()).steps},
    "query.decode_pixel_features": _distinct_entries,
    "scene.save_scene":
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER_UNITS = {
    "rasterizer.composite_weights.ms_per_call": "ms",
    "rasterizer.composite_weights.calls": "count",
    "rasterizer.composite_weights.pairs": "count",
    "codebook.total_loss.ms_per_call": "ms",
    "codebook.total_loss.calls": "count",
    "codebook.total_loss.batch_rows": "count",
    "codebook.kmeans_init.s": "s",
    "trainer.train_semantic_field.self_ms_per_iter": "ms",
    "query.decode_pixel_features.self_ms": "ms",
    "query.select_goi.ms_per_call": "ms",
    "query.manipulate.ms_per_call": "ms",
    "query.camera_reuse_frac": "fraction",
    "query.distinct_entries": "count",
    "osh.finetune_osh.ms_per_call": "ms",
    "osh.loss_evals_per_step": "count/step",
    "osh.valid_pixels": "count",
    "scene.save_scene.ms": "ms",
    "scene.load_scene.ms": "ms",
    "scene.bytes": "bytes",
    "synth.write_experiment.s": "s",
    "metrics.evaluate.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.span_cost_s": "s",
}


def per_layer_metrics(spans, start: float, end: float, untraced_wall: float,
                      camera_reuse_frac: float) -> dict:
    """Per-layer metric values from the spans of one traced session.

    [start, end] bounds the traced session; untraced_wall is the wall
    time of the same work without tracing. That difference is at the
    mercy of the machine's speed swings, so the span count times the
    measured cost of one span is reported beside it.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    for span, own_s in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        self_s[name] += own_s
        for key, value in (span[COUNTS] or {}).items():
            counts[name][key] += value

    def per_call(name, values, scale=1.0):
        return scale * values[name] / calls[name] if calls[name] else 0.0

    def count_per_call(name, key):
        return counts[name][key] / calls[name] if calls[name] else 0.0

    cw, tl = "rasterizer.composite_weights", "codebook.total_loss"
    train, fo = "trainer.train_semantic_field", "osh.finetune_osh"
    iterations = counts[train]["iterations"]
    steps = counts[fo]["steps"]
    wall = end - start
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    values = {
        f"{cw}.ms_per_call": per_call(cw, total, 1e3),
        f"{cw}.calls": calls[cw],
        f"{cw}.pairs": count_per_call(cw, "pairs"),
        f"{tl}.ms_per_call": per_call(tl, total, 1e3),
        f"{tl}.calls": calls[tl],
        f"{tl}.batch_rows": count_per_call(tl, "rows"),
        "codebook.kmeans_init.s": total["codebook.kmeans_init"],
        f"{train}.self_ms_per_iter":
            1e3 * self_s[train] / iterations if iterations else 0.0,
        "query.decode_pixel_features.self_ms":
            per_call("query.decode_pixel_features", self_s, 1e3),
        "query.select_goi.ms_per_call": per_call("query.select_goi", total, 1e3),
        "query.manipulate.ms_per_call": per_call("query.manipulate", total, 1e3),
        "query.camera_reuse_frac": camera_reuse_frac,
        "query.distinct_entries":
            count_per_call("query.decode_pixel_features", "distinct_entries"),
        f"{fo}.ms_per_call": per_call(fo, total, 1e3),
        "osh.loss_evals_per_step":
            calls["osh.osh_loss_and_grad"] / steps if steps else 0.0,
        "osh.valid_pixels": count_per_call(fo, "valid_pixels"),
        "scene.save_scene.ms": per_call("scene.save_scene", total, 1e3),
        "scene.load_scene.ms": per_call("scene.load_scene", total, 1e3),
        "scene.bytes": count_per_call("scene.save_scene", "bytes"),
        "synth.write_experiment.s": total["synth.write_experiment"],
        "metrics.evaluate.s": total["metrics.evaluate"],
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.coverage": coverage(spans, start, end),
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_frac": (wall - untraced_wall) / untraced_wall,
        "trace.span_cost_s": len(spans) * span_cost(),
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
