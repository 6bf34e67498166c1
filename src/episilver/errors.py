"""Exception taxonomy for the pipeline.

Three broad families map onto the CLI exit codes: configuration
problems (exit 2), data problems (exit 3), training problems (exit 4).
A failing stage tags the exception with its stage name so the CLI can
emit a machine-readable error record.
"""

import copyreg
import zlib
from contextlib import contextmanager


class PipelineError(Exception):
    exit_code = 1

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    def __reduce__(self):
        # Rebuilt from its args and attributes without calling __init__,
        # whose parameters differ by subclass, so an error raised in a
        # worker process reaches the parent as itself.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(PipelineError):
    exit_code = 2


class DataError(PipelineError):
    exit_code = 3


class TrainingError(PipelineError):
    exit_code = 4


class ParseError(DataError):
    """Malformed input line; carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class SchemaError(DataError):
    """Structurally valid JSON that is missing required tweet fields."""


class PatternError(ConfigError):
    """A labeling rule whose regular expression does not compile."""


class InsufficientNegativesError(DataError):
    """Fewer qualifying non-epidemic documents than requested."""

    def __init__(self, needed: int, available: int):
        super().__init__(
            f"need {needed} non-epidemic documents, found {available} "
            f"(shortfall {needed - available})"
        )
        self.needed = needed
        self.available = available
        self.shortfall = needed - available


class BalanceError(DataError):
    """Negative count does not equal the sum of positive counts."""


class DuplicateTextError(DataError):
    """Two dataset examples share the same normalized text."""


class FitError(DataError):
    """Vectorizer fit found no usable tokens."""


class DegenerateLabelsError(TrainingError):
    """Fewer than two distinct classes in the training labels."""


class DivergenceError(TrainingError):
    """Optimizer produced a non-finite loss."""


class ShapeError(DataError):
    """Vector dimension does not match the model."""


class StratificationError(DataError):
    """A class has too few members to split."""


class InputError(DataError):
    """Invalid metric input: length mismatch, unknown label, bad format."""


@contextmanager
def stage(name: str):
    """Tag pipeline errors with the stage name; unreadable or corrupt
    input (I/O errors, truncated or damaged gzip streams, text that is
    not valid UTF-8) becomes a DataError."""
    try:
        yield
    except PipelineError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise DataError(str(exc), stage=name) from exc
