"""Segmentation metrics and the single-query evaluation loop.

Each evaluation case is one (view, ground-truth mask, text query)
tuple; the harness runs the query pipeline per case and scores the
predicted mask. An evaluation is its case records; their unweighted
means are taken when read. Cases that share a camera share its decoded
view through the model's view store. Empty-vs-empty cases are defined
as perfect so the metrics are total functions. A case's errors, at
load or evaluation, name it `test case {i} ({text!r})`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .formats import _naming, json_is, read_json, read_mask, write_json
from .osh import DEFAULT_THRESHOLD, EmbeddingTable
from .query import open_vocab_query
from .scene import Camera, load_camera
from .trainer import TrainedModel


def _check_shapes(pred: np.ndarray, gt: np.ndarray):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValidationError(
            f"mask shape mismatch: {pred.shape} vs {gt.shape}")
    return pred, gt


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    pred, gt = _check_shapes(pred, gt)
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)


def pixel_accuracy(pred: np.ndarray, gt: np.ndarray) -> float:
    pred, gt = _check_shapes(pred, gt)
    return float((pred == gt).sum() / pred.size)


def precision(pred: np.ndarray, gt: np.ndarray) -> float:
    pred, gt = _check_shapes(pred, gt)
    predicted = pred.sum()
    if predicted == 0:
        return 1.0 if gt.sum() == 0 else 0.0
    return float(np.logical_and(pred, gt).sum() / predicted)


@dataclass
class EvalCase:
    camera: Camera
    gt_mask: np.ndarray
    text: str
    pseudo_mask: np.ndarray | None = None

    def __post_init__(self):
        view = (self.camera.height, self.camera.width)
        for name, mask in (("gt", self.gt_mask), ("pseudo", self.pseudo_mask)):
            if mask is not None and mask.shape != view:
                raise ValidationError(f"{name} mask shape {mask.shape} "
                                      f"does not match camera")


def _case(i: int, text: str) -> str:
    return f"test case {i} ({text!r})"


@dataclass
class Metrics:
    per_case: list  # [{"text", "iou", "pa", "precision"}, ...]

    def _mean(self, key: str) -> float:
        return float(np.mean([c[key] for c in self.per_case]))

    miou = property(lambda self: self._mean("iou"))
    mpa = property(lambda self: self._mean("pa"))
    mp = property(lambda self: self._mean("precision"))

    def to_report(self) -> dict:
        rnd = lambda x: x if isinstance(x, str) else round(float(x), 4)
        return {
            "cases": [{k: rnd(v) for k, v in c.items()}
                      for c in self.per_case],
            "mIoU": rnd(self.miou), "mPA": rnd(self.mpa), "mP": rnd(self.mp),
        }


def load_testset(path) -> list[EvalCase]:
    path = Path(path)

    def parse(d):
        entries = []
        for c in d["cases"]:
            text, pseudo = c["text"], c.get("pseudo_mask")
            if not json_is(str, text):
                raise TypeError(f"text must be a string, got {text!r}")
            # absent or null means no pseudo-mask; "" names no file
            if not (pseudo is None or json_is(str, pseudo) and pseudo):
                raise TypeError(f"pseudo_mask must be a file name or null, "
                                f"got {pseudo!r}")
            entries.append((path.parent / c["camera"],
                            path.parent / c["gt_mask"],
                            pseudo and path.parent / pseudo, text))
        return entries
    entries = read_json(path, "test set", parse)
    cases = []
    for i, (cam, gt, pseudo, text) in enumerate(entries):
        with _naming(f"{path}: {_case(i, text)}"):
            try:
                cases.append(EvalCase(
                    camera=load_camera(cam), gt_mask=read_mask(gt), text=text,
                    pseudo_mask=read_mask(pseudo) if pseudo else None))
            except OSError as e:
                raise ValidationError(str(e)) from e
    return cases


def evaluate(model: TrainedModel, cases: list[EvalCase],
             embeddings: EmbeddingTable, *, use_osh: bool = True,
             threshold: float = DEFAULT_THRESHOLD) -> Metrics:
    if not cases:
        raise ValidationError("no evaluation cases")
    per_case = []
    for i, case in enumerate(cases):
        with _naming(_case(i, case.text)):
            result = open_vocab_query(
                model, case.camera, embeddings.lookup(case.text),
                case.pseudo_mask,
                use_osh=use_osh and case.pseudo_mask is not None,
                threshold=threshold)
        per_case.append({
            "text": case.text,
            "iou": iou(result.mask, case.gt_mask),
            "pa": pixel_accuracy(result.mask, case.gt_mask),
            "precision": precision(result.mask, case.gt_mask),
        })
    return Metrics(per_case)


def write_report(metrics: Metrics, path) -> None:
    write_json(path, metrics.to_report(), indent=1, sort_keys=True)
