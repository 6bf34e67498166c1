"""Exception taxonomy for the pipeline.

Three broad families map onto the CLI exit codes: configuration
problems (exit 2), data problems (exit 3), training problems (exit 4).
A failing stage tags the exception with its stage name so the CLI can
emit a machine-readable error record.
"""

import copyreg
import json
import math
import zlib
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any


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


def _finite(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float, if finite."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _same(a: Any, b: Any) -> bool:
    """Whether two values of the types json parses to dump alike: the same
    types (so true, 1 and 1.0 differ), key sets and list lengths, and equal
    scalars, a float's sign of zero included (0.0 and -0.0 dump apart)."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and _same_items(list(a.values()), [b[k] for k in a])
    if type(a) is list:
        return len(a) == len(b) and _same_items(a, b)
    return a == b and (type(a) is not float
                       or math.copysign(1.0, a) == math.copysign(1.0, b))


def _same_items(a: list, b: list) -> bool:
    """`_same` of each pair of two lists of one length."""
    types = list(map(type, a))
    if types == list(map(type, b)) and _SCALARS.issuperset(types):
        # scalars of one type per position: the lists compare in C, and
        # equal floats dump apart only as 0.0 and -0.0
        return a == b and all(
            math.copysign(1.0, x) == math.copysign(1.0, y)
            for x, y in zip(a, b) if type(x) is float and x == 0.0)
    return all(map(_same, a, b))


def read_document(data: bytes | str, origin: str, what: str, version: int,
                  build: Callable[[dict], Any], dump: Callable[[Any], dict],
                  basis: str = "saving it again") -> Any:
    """Load a JSON file the program wrote: `build` makes the object, giving
    each value its declared type, and the file is accepted only if `dump`,
    the saver's document for it, gives it back, top-level key by key, in
    the types json parses to (`_same`).
    Invalid UTF-8 or JSON, a non-finite number (NaN, Infinity, 1e400) or
    one too large for its type, another format version, a key that differs
    or that one side lacks, a missing key and a value of the wrong type,
    shape or range raise one DataError naming `origin`, `what` and the keys."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data,
                         parse_float=_finite, parse_constant=_finite)
        if doc.get("format_version") != version:
            raise ValueError("unsupported format version")
        loaded = build(doc)
        saved = dump(loaded)
        differ = sorted(
            key for key in doc.keys() | saved.keys()
            if key not in doc or key not in saved or not _same(doc[key], saved[key]))
        if differ:
            raise ValueError(f"{', '.join(differ)} not as {basis} gives")
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            OverflowError, RecursionError, ConfigError) as exc:
        raise DataError(
            f"{origin}: malformed {what}: {type(exc).__name__}: {exc}") from exc
    return loaded
