"""Record constructors: their field rules, and how records compare.

A record built in code meets the same type rules as one read from JSON,
with the same messages; records that hold arrays compare by identity,
records of plain values by value.
"""

from pathlib import Path

import numpy as np
import pytest

from goi.codebook import Codebook, Decoder, LossGrads, LossValue, LossWeights
from goi.errors import ValidationError
from goi.metrics import EvalCase, Metrics
from goi.osh import EmbeddingTable, Hyperplane, OSHConfig
from goi.query import QueryResult
from goi.rasterizer import RenderOutput
from goi.scene import Camera
from goi.synth import Experiment, generate_scene
from goi.trainer import Dataset, TrainConfig, TrainedModel


def camera(**fields):
    return Camera(**{"width": 8, "height": 8, "fx": 10.0, "fy": 10.0,
                     "cx": 4.0, "cy": 4.0, **fields})


def labeled():
    return generate_scene("blocks", n_clusters=2, gaussians_per_cluster=3,
                          seed=0, feature_dim=4, embed_dim=8)


def dataset():
    return Dataset(views=[(camera(), np.zeros((8, 8, 3)))],
                   feature_dim_high=3)


def hyperplane():
    return Hyperplane(weight=[1.0, 0.0], bias=-0.5)


SCENE = labeled().scene  # shared, so that models differ past their scene


def trained_model():
    return TrainedModel(scene=SCENE,
                        codebook=Codebook(entries=np.eye(8)[:2]),
                        decoder=Decoder(weight=np.ones((2, 4)),
                                        bias=np.zeros(2)))


# a builder per record that holds arrays; two calls build records alike
ARRAY_RECORDS = {
    "Codebook": lambda: Codebook(entries=np.eye(2)),
    "Decoder": lambda: Decoder(weight=np.ones((2, 3)), bias=np.zeros(2)),
    "LossGrads": lambda: LossGrads(entries=np.ones((2, 3)),
                                   dec_weight=np.ones((2, 4)),
                                   dec_bias=np.ones(2),
                                   fhat=np.ones((5, 4))),
    "Hyperplane": hyperplane,
    "QueryResult": lambda: QueryResult(mask=np.zeros((2, 2), bool),
                                       goi_indices=np.arange(3),
                                       hyperplane=hyperplane()),
    "RenderOutput": lambda: RenderOutput(rgb=np.zeros((2, 2, 3)),
                                         ld_features=np.zeros((2, 2, 4)),
                                         alpha=np.zeros((2, 2))),
    "Camera": camera,
    "EvalCase": lambda: EvalCase(camera=camera(),
                                 gt_mask=np.zeros((8, 8), bool), text="a"),
    "LabeledScene": labeled,
    "Experiment": lambda: Experiment(
        directory=Path("exp"), labeled=labeled(), dataset=dataset(),
        scene_path=Path("exp/scene.gois"),
        manifest_path=Path("exp/train_manifest.json"),
        testset_path=Path("exp/testset.json"),
        embeddings_path=Path("exp/embeddings.json")),
    "Dataset": dataset,
    "TrainedModel": trained_model,
}


class TestRecordEquality:
    @pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
    def test_array_records_compare_by_identity(self, name):
        build = ARRAY_RECORDS[name]
        a, b = build(), build()
        assert (a == a) is True and (a != a) is False
        assert (a == b) is False and (a != b) is True

    @pytest.mark.parametrize("build", [
        TrainConfig, OSHConfig, LossWeights,
        lambda: LossValue(total=1.0, ent=0.1, max=0.2, joint=0.3, e2e=0.4),
        lambda: Metrics([{"text": "a", "iou": 0.5, "pa": 0.9,
                          "precision": 0.7}])],
        ids=["TrainConfig", "OSHConfig", "LossWeights", "LossValue",
             "Metrics"])
    def test_value_records_compare_by_value(self, build):
        assert build() == build()


class TestCameraFields:
    # the messages a camera read from JSON gives for the same fields
    @pytest.mark.parametrize("fields, message", [
        ({"width": 8.0}, "width and height must be integers"),
        ({"height": True}, "width and height must be integers"),
        ({"fx": "60"}, "intrinsics and pose must be numbers"),
        ({"world_to_camera": [True] + [0.0] * 4 + [1.0] + [0.0] * 4
          + [1.0] + [0.0] * 4 + [1.0]},
         "intrinsics and pose must be numbers")],
        ids=["width 8.0", "height True", "fx '60'", "pose bool"])
    def test_code_built_camera_of_another_type(self, fields, message):
        with pytest.raises(TypeError, match=message):
            camera(**fields)

    def test_numbers_cast_to_float(self):
        cam = camera(fx=np.float32(10.0), cx=4, world_to_camera=np.eye(
            4, dtype=int))
        assert type(cam.fx) is float and type(cam.cx) is float
        assert cam.world_to_camera.dtype == np.float64


class TestEmbeddingTableFields:
    @pytest.mark.parametrize("dim, entries, message", [
        (2, {"a": np.zeros(2)}, "embedding for 'a' has zero norm"),
        (2, {"a": np.ones(3)}, "embedding for 'a' has wrong length"),
        (0, {}, "dim must be >= 1, got 0")],
        ids=["zero embedding", "wrong length", "dim 0"])
    def test_code_built_table_rejected(self, dim, entries, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(dim, entries)

    @pytest.mark.parametrize("dim, entries, message", [
        (2.0, {}, "dim must be an integer, got 2.0"),
        (True, {}, "dim must be an integer, got True"),
        (2, {"a": [1.0, True]}, "embedding for 'a' must be numbers")],
        ids=["dim 2.0", "dim True", "bool entry"])
    def test_code_built_table_of_another_type(self, dim, entries, message):
        with pytest.raises(TypeError, match=message):
            EmbeddingTable(dim, entries)


class TestViewRecords:
    def test_dataset_map_not_h_w_d(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            Dataset(views=[(camera(), np.zeros((8, 8)))], feature_dim_high=3)

    def test_eval_case_takes_list_masks(self):
        mask = [[False] * 8] * 8
        case = EvalCase(camera=camera(), gt_mask=mask, text="a",
                        pseudo_mask=mask)
        assert case.gt_mask.shape == case.pseudo_mask.shape == (8, 8)
