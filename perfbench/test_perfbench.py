"""Unit tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import goi.rasterizer  # noqa: E402
import goi.trainer  # noqa: E402
from goi import metrics, query, synth  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from oracle import build_oracle_model  # noqa: E402
from tracer import Tracer, coverage, self_times, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(99)), 90) is None
    assert run.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert run.tail_percentile(list(range(19)), 50) is None
    assert run.tail_percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_calibration_scales_by_the_median_kernel_time():
    cal = calibrate.Calibration(["loss", "raster", "raster"])
    ref = calibrate.REFERENCE_MS["raster"]
    cal.samples["raster"] = [ref * f for f in (1.0, 2.0, 4.0)]
    assert cal.speed("raster") == pytest.approx(0.5)
    cal.sample()   # each kernel once; no timer outside the context
    assert len(cal.samples["raster"]) == 4 and len(cal.samples["loss"]) == 1
    assert cal.spent > 0.0


def test_speed_comes_from_the_samples_around_an_interval():
    cal = calibrate.Calibration(["raster"])
    ref = calibrate.REFERENCE_MS["raster"]
    cal.at = [float(t) for t in range(20)]                # one sample a second
    cal.samples["raster"] = [ref] * 10 + [2.0 * ref] * 10  # slow from t = 10
    assert cal.speed("raster") == pytest.approx(2.0 / 3.0)
    assert cal.speed("raster", 2.0, 3.0) == 1.0   # widened to hold 5 samples
    assert cal.speed("raster", 15.0, 15.5) == 0.5
    assert cal.scaled_ms("raster", [(2.0, 3.0), (15.0, 15.5)]) == \
        pytest.approx(1000.0 + 250.0)


def test_calibration_clock_leaves_the_kernels_out():
    with calibrate.Calibration(["raster"], share=0.5) as cal:
        t0, c0, spent0 = time.perf_counter(), cal.clock(), cal.spent
        while time.perf_counter() - t0 < 0.3:
            pass
    wall, timed = time.perf_counter() - t0, cal.clock() - c0
    kernels = cal.spent - spent0
    assert len(cal.samples["raster"]) >= 3 and kernels > 0.05
    # one sample may fall between the reads at the start
    slack = max(cal.samples["raster"]) / 1e3 + 1e-3
    assert timed == pytest.approx(wall - kernels, abs=slack)


def test_every_time_metric_names_a_kernel():
    for workload in WORKLOADS.values():
        assert set(workload.reference) == {"setup_s", "op_p50_ms",
                                           "query_p50_ms"}
        assert set(workload.reference.values()) <= set(calibrate.KERNELS)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4), (3, 5), (5, 6)]) == 5.0


def span(name, parent, start, end):
    return [name, parent, start, end, None]


def test_self_time_subtracts_child_cover_once():
    spans = [span("a", -1, 0.0, 10.0),
             span("b", 0, 1.0, 3.0), span("c", 0, 2.0, 5.0),   # overlap 2..3
             span("d", 2, 2.5, 4.5),                          # grandchild
             span("e", 0, 8.0, 12.0)]                         # runs past a
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    assert coverage(spans, 0.0, 20.0) == pytest.approx(0.5)


def test_tracer_wraps_every_binding_and_restores_them():
    original = goi.rasterizer.composite_weights
    assert goi.trainer.composite_weights is original
    ls = synth.generate_scene("blocks", 2, 10, seed=0)
    cam = synth.orbit_cameras(1, width=16, image_height=16, fx=15.0)[0]
    with Tracer() as tracer:
        tracer.install("goi", ["rasterizer.composite_weights",
                               "rasterizer.render"], layers.COUNTERS)
        assert goi.trainer.composite_weights is not original
        goi.rasterizer.render(ls.scene, cam)
    assert goi.rasterizer.composite_weights is original
    assert goi.trainer.composite_weights is original
    names = [s[0] for s in tracer.spans]
    assert names == ["rasterizer.render", "rasterizer.composite_weights"]
    assert tracer.spans[1][1] == 0
    assert tracer.spans[1][4]["pairs"] > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_model_reproduces_oracle_masks(seed):
    ls = synth.generate_scene("blocks", 3, 30, seed=seed)
    model = build_oracle_model(ls, n_entries=20, seed=seed)
    for cam in synth.orbit_cameras(2, width=32, image_height=32, fx=30.0):
        for lab in range(3):
            truth = synth.oracle_mask(ls, cam, lab)
            result = query.open_vocab_query(
                model, cam, ls.cluster_embeddings[lab], use_osh=False)
            assert truth.any()
            assert metrics.iou(result.mask, truth) == 1.0
            assert np.array_equal(result.goi_indices,
                                  np.flatnonzero(ls.labels == lab))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER_UNITS
