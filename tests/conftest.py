import numpy as np
import pytest

from goi.synth import generate_gt_features, generate_scene, orbit_cameras
from goi.codebook import kmeans_init
from goi.trainer import Dataset, TrainConfig, train_semantic_field


@pytest.fixture(scope="session")
def trained_small():
    """Small trained 2-cluster model shared by evaluation-level tests."""
    ls = generate_scene("blocks", n_clusters=2, gaussians_per_cluster=40,
                        seed=1, feature_dim=6, embed_dim=32)
    cams = orbit_cameras(8, width=32, image_height=32, fx=30.0)
    data = Dataset(
        views=[(cam, generate_gt_features(ls, cam, seed=1, view_id=i))
               for i, cam in enumerate(cams)],
        feature_dim_high=32)
    samples = np.concatenate([gt.reshape(-1, 32) for _, gt in data.views])
    samples = samples[np.linalg.norm(samples, axis=1) > 1e-8]
    cb0 = kmeans_init(samples, n_entries=24, iters=5, seed=1)
    cfg = TrainConfig(iterations=400, tau_switch_iter=250, seed=1)
    model = train_semantic_field(ls.scene, data, cb0, cfg)
    return ls, cams, model
