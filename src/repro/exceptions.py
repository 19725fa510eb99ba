"""Exception hierarchy used across the CyberHD reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """Raised when a model, encoder or experiment is configured inconsistently."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class DatasetError(ReproError):
    """Raised for unknown datasets or malformed dataset specifications."""


class EncodingError(ReproError):
    """Raised when input data cannot be encoded into hyperspace."""


class HardwareModelError(ReproError):
    """Raised when an analytical hardware model receives invalid parameters."""


class ClusterError(ReproError, RuntimeError):
    """Raised when the serving cluster cannot go on: a worker died with no
    recovery left, a worker broke the report protocol, or supervision
    itself faulted."""
