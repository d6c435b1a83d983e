"""Masked-autoencoder pretraining for point clouds, self-contained on numpy."""

from .errors import (
    CheckpointCompatibilityError,
    CheckpointFormatError,
    ConfigError,
    GradCheckError,
    MaskConsistencyError,
    NonFiniteError,
    PamrError,
    PointCloudParseError,
    ShapeError,
    WorkerError,
)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "PamrError",
    "ShapeError",
    "ConfigError",
    "NonFiniteError",
    "GradCheckError",
    "MaskConsistencyError",
    "PointCloudParseError",
    "CheckpointFormatError",
    "CheckpointCompatibilityError",
    "WorkerError",
    "__version__",
]
