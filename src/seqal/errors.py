"""Exception types shared across the package.

Every error raised on purpose by this package derives from SeqalError, so
callers can catch the whole family in one clause. IO failures (unwritable
directories, missing trees) deliberately stay in the builtin OSError family.
"""


class SeqalError(Exception):
    """Base class for all package-specific errors."""


class NameFormatError(SeqalError):
    """A label file name does not match ``<sequence>_<frame>.txt``."""


class LineFormatError(SeqalError):
    """A label line is malformed; the message names the file and the 1-based
    line number."""

    def __init__(self, message: str, path_name: str, line_number: int):
        super().__init__(f"{path_name} line {line_number}: {message}")


class ManifestError(SeqalError):
    """The pool manifest is missing, malformed, or inconsistent with the tree."""


class ContinuityError(SeqalError):
    """Frame ids within a sequence are not consecutive from zero."""


class GenError(SeqalError):
    """A synthetic-pool config is degenerate (e.g. objects larger than the raster)."""


class ShapeError(SeqalError):
    """Array arguments have mismatched or invalid shapes."""


class MissingRasterError(SeqalError):
    """A frame needed for motion statistics has no raster attached."""


class FeatureError(SeqalError):
    """A sequence feature vector is empty or unavailable."""


class TraceError(SeqalError):
    """A score trace or a run's records file is malformed, or a trace lacks a
    requested round, seed, or sequence."""


class DomainError(SeqalError):
    """A scalar argument is outside its documented domain."""


class PoolExhaustedError(SeqalError):
    """The unlabeled pool cannot supply the requested batch."""


class MissingScoresError(SeqalError):
    """A strategy that needs scores or features was invoked without them."""


class ModeError(SeqalError):
    """A strategy kind is not supported by the requested acquisition mode."""


class EmptyTestError(SeqalError):
    """The test split holds no frames or no ground-truth boxes."""


class EmptyCurveError(SeqalError):
    """A performance-cost curve has no points."""


class ConfigError(SeqalError):
    """A config file is missing a section or holds an unusable value."""
