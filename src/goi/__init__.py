"""Compressed open-vocabulary semantic fields on frozen 3D Gaussian scenes."""

__version__ = "0.1.0"
