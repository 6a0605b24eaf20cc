import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goi.errors import ValidationError
from goi.formats import write_mask
from goi.metrics import (EvalCase, Metrics, evaluate, iou, load_testset,
                         pixel_accuracy, precision, write_report)
from goi.scene import look_at_camera, save_camera
from goi.synth import embedding_table, oracle_mask


def m(*rows):
    return np.array(rows, dtype=bool)


class TestIou:
    def test_identical(self):
        a = m([1, 0], [1, 1])
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(m([1, 0]), m([0, 1])) == 0.0

    def test_half_inside(self):
        # pred covers 2 pixels, gt covers 2, they share 1; union is 3
        pred = m([1, 1, 0])
        gt = m([0, 1, 1])
        assert iou(pred, gt) == pytest.approx(1.0 / 3.0)

    def test_pred_half_of_gt(self):
        pred = m([1, 0], [0, 0])
        gt = m([1, 1], [0, 0])
        assert iou(pred, gt) == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=bool)
        assert iou(z, z) == 1.0

    def test_one_empty_is_zero(self):
        z = np.zeros((2, 2), dtype=bool)
        assert iou(z, ~z) == 0.0 and iou(~z, z) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(6, 6)) < 0.4
        b = rng.uniform(size=(6, 6)) < 0.4
        assert iou(a, b) == iou(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestPixelAccuracy:
    def test_identical(self):
        a = m([1, 0, 1])
        assert pixel_accuracy(a, a) == 1.0

    def test_counts_agreement(self):
        pred = m([1, 1, 0, 0])
        gt = m([1, 0, 0, 1])
        assert pixel_accuracy(pred, gt) == pytest.approx(0.5)

    def test_complement_is_zero(self):
        a = m([1, 0], [0, 1])
        assert pixel_accuracy(a, ~a) == 0.0

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(size=16) < 0.5
        gt = rng.uniform(size=16) < 0.5
        perm = rng.permutation(16)
        assert pixel_accuracy(pred, gt) == pytest.approx(
            pixel_accuracy(pred[perm], gt[perm]))


class TestPrecision:
    def test_all_predictions_correct(self):
        pred = m([1, 0, 0])
        gt = m([1, 1, 0])
        assert precision(pred, gt) == 1.0

    def test_half_predictions_correct(self):
        pred = m([1, 1])
        gt = m([1, 0])
        assert precision(pred, gt) == pytest.approx(0.5)

    def test_no_predictions_empty_gt(self):
        z = np.zeros(4, dtype=bool)
        assert precision(z, z) == 1.0

    def test_no_predictions_nonempty_gt(self):
        z = np.zeros(4, dtype=bool)
        assert precision(z, ~z) == 0.0


class TestReport:
    def test_means_and_rounding(self):
        per_case = [{"text": "a", "iou": 1.0, "pa": 1.0, "precision": 1.0},
                    {"text": "b", "iou": 0.5, "pa": 0.25, "precision": 0.125}]
        metrics = Metrics(per_case)
        rep = metrics.to_report()
        assert rep["mIoU"] == 0.75 and rep["mPA"] == 0.625
        assert rep["mP"] == 0.5625
        assert rep["cases"][1]["precision"] == 0.125

    def test_means_are_over_the_records(self):
        rng = np.random.default_rng(0)
        per_case = [{"text": str(i), "iou": rng.random(), "pa": rng.random(),
                     "precision": rng.random()} for i in range(7)]
        metrics = Metrics(per_case)
        for mean, key in ((metrics.miou, "iou"), (metrics.mpa, "pa"),
                          (metrics.mp, "precision")):
            assert mean == float(np.mean([c[key] for c in per_case]))

    def test_report_keeps_every_record_field(self):
        # a field the report does not list is written, rounded like the rest
        per_case = [{"text": "0.5", "iou": 1 / 3, "pa": 1.0,
                     "precision": 0.5, "surface_pixels": 2 / 7}]
        assert Metrics(per_case).to_report()["cases"] == [
            {"text": "0.5", "iou": 0.3333, "pa": 1.0, "precision": 0.5,
             "surface_pixels": 0.2857}]

    def test_write_report_stable_json(self, tmp_path):
        metrics = Metrics([{"text": "a", "iou": 0.0, "pa": 1.0,
                            "precision": 0.0},
                           {"text": "b", "iou": 1.0, "pa": 1.0,
                            "precision": 0.0},
                           {"text": "c", "iou": 0.0, "pa": 0.0,
                            "precision": 0.0}])
        p = tmp_path / "r.json"
        write_report(metrics, p)
        d = json.loads(p.read_text())
        assert d["mIoU"] == 0.3333 and d["mPA"] == 0.6667


class TestEvalCases:
    def test_mask_shape_checked(self):
        cam = look_at_camera((4.0, 2.0, 3.0), (0, 0, 0), width=8, height=8,
                             fx=8.0)
        with pytest.raises(ValidationError):
            EvalCase(camera=cam, gt_mask=np.zeros((4, 4), dtype=bool),
                     text="x")

    def test_pseudo_mask_shape_checked(self, tmp_path):
        # loaded from a test set, the error names the file and the case
        save_camera(look_at_camera((4.0, 2.0, 3.0), (0, 0, 0), width=8,
                                   height=8, fx=8.0), tmp_path / "cam.json")
        write_mask(tmp_path / "gt.pgm", np.zeros((8, 8), dtype=bool))
        write_mask(tmp_path / "p.pgm", np.zeros((8, 7), dtype=bool))
        case = {"camera": "cam.json", "gt_mask": "gt.pgm", "text": "x"}
        (tmp_path / "testset.json").write_text(json.dumps({"cases": [
            case, dict(case, pseudo_mask="p.pgm")]}))
        with pytest.raises(ValidationError) as info:
            load_testset(tmp_path / "testset.json")
        assert str(info.value) == (
            f"{tmp_path / 'testset.json'}: test case 1 ('x'): "
            f"pseudo mask shape (8, 7) does not match camera")

    def test_load_testset(self, tmp_path):
        cam = look_at_camera((4.0, 2.0, 3.0), (0, 0, 0), width=8, height=8,
                             fx=8.0)
        save_camera(cam, tmp_path / "cam.json")
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:4, 2:4] = True
        write_mask(tmp_path / "gt.pgm", mask)
        (tmp_path / "testset.json").write_text(json.dumps({"cases": [
            {"camera": "cam.json", "gt_mask": "gt.pgm", "text": "thing"}]}))
        cases = load_testset(tmp_path / "testset.json")
        assert len(cases) == 1 and cases[0].text == "thing"
        assert np.array_equal(cases[0].gt_mask, mask)
        assert cases[0].pseudo_mask is None

    def test_null_pseudo_mask_means_none(self, tmp_path):
        save_camera(look_at_camera((4.0, 2.0, 3.0), (0, 0, 0), width=8,
                                   height=8, fx=8.0), tmp_path / "cam.json")
        write_mask(tmp_path / "gt.pgm", np.zeros((8, 8), dtype=bool))
        (tmp_path / "testset.json").write_text(json.dumps({"cases": [
            {"camera": "cam.json", "gt_mask": "gt.pgm", "text": "thing",
             "pseudo_mask": None}]}))
        assert load_testset(tmp_path / "testset.json")[0].pseudo_mask is None

    def test_load_testset_missing_file(self, tmp_path):
        (tmp_path / "testset.json").write_text(json.dumps({"cases": [
            {"camera": "nope.json", "gt_mask": "gt.pgm", "text": "x"}]}))
        with pytest.raises(ValidationError, match="case 0"):
            load_testset(tmp_path / "testset.json")


class TestEvaluateLoop:
    def test_matches_hand_scripted_loop(self, trained_small):
        ls, cams, model = trained_small
        table = embedding_table(ls)
        cases = []
        for cam in cams[:3]:
            for label, name in enumerate(ls.label_names):
                gt = oracle_mask(ls, cam, label)
                cases.append(EvalCase(camera=cam, gt_mask=gt, text=name,
                                      pseudo_mask=gt))
        metrics = evaluate(model, cases, table, use_osh=True)

        # independent loop over the same public query API
        from goi.query import open_vocab_query
        ious, pas, ps = [], [], []
        for case in cases:
            res = open_vocab_query(model, case.camera,
                                   table.lookup(case.text),
                                   case.pseudo_mask, use_osh=True)
            inter = np.logical_and(res.mask, case.gt_mask).sum()
            union = np.logical_or(res.mask, case.gt_mask).sum()
            ious.append(1.0 if union == 0 else inter / union)
            pas.append((res.mask == case.gt_mask).mean())
            npred = res.mask.sum()
            if npred == 0:
                ps.append(1.0 if case.gt_mask.sum() == 0 else 0.0)
            else:
                ps.append(inter / npred)
        assert abs(metrics.miou - np.mean(ious)) < 1e-12
        assert abs(metrics.mpa - np.mean(pas)) < 1e-12
        assert abs(metrics.mp - np.mean(ps)) < 1e-12

    def test_empty_caselist_rejected(self, trained_small):
        ls, _, model = trained_small
        with pytest.raises(ValidationError):
            evaluate(model, [], embedding_table(ls))
