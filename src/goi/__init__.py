"""Compressed open-vocabulary semantic fields on frozen 3D Gaussian scenes."""

from .errors import FormatError, GOIError, NumericError, ValidationError
from .osh import Hyperplane, OSHConfig, init_hyperplane
from .scene import Camera, Scene, import_ply, load_scene, save_scene
from .codebook import Codebook, Decoder, kmeans_init
from .trainer import TrainConfig, TrainedModel, train_semantic_field

__all__ = [
    "Camera", "Codebook", "Decoder", "FormatError", "GOIError", "Hyperplane",
    "NumericError", "OSHConfig", "Scene", "TrainConfig", "TrainedModel",
    "ValidationError", "import_ply", "init_hyperplane", "kmeans_init",
    "load_scene", "save_scene", "train_semantic_field",
]
__version__ = "0.1.0"
