"""Exception types shared across the package.

Everything raised on purpose derives from PamrError so callers can catch
one base class at the CLI boundary and turn it into a clean exit.
"""


class PamrError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ShapeError(PamrError):
    """An array argument has the wrong rank or incompatible dimensions."""


class ConfigError(PamrError):
    """A configuration value is missing, malformed, or out of range."""


class NonFiniteError(PamrError):
    """A NaN or infinity appeared where only finite values are allowed."""


class GradCheckError(PamrError):
    """A finite-difference gradient comparison exceeded its tolerance."""


class MaskConsistencyError(PamrError):
    """Mask bookkeeping references an index that is not where it should be."""


class PointCloudParseError(PamrError):
    """A point-cloud text file could not be parsed."""


class CheckpointFormatError(PamrError):
    """A checkpoint file is truncated, corrupt, or not a checkpoint at all."""


class CheckpointCompatibilityError(PamrError):
    """A checkpoint was produced under a configuration this model rejects."""


class WorkerError(PamrError):
    """A pool worker process exited before it returned its pack or job."""
