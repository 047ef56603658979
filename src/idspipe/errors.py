"""Exception hierarchy shared across the pipeline.

Exit-code mapping used by the CLI: usage errors exit 1, ``DataError`` (and
OS-level file problems) exit 2, anything else exits 3 as an internal fault.
"""

import functools


class DataError(Exception):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """Malformed record file; message carries the 1-based line number."""


class SchemaError(DataError):
    """Dataset does not conform to the expected feature schema."""


class UnknownLabelError(DataError):
    """Label outside the declared class set."""


class SamplingError(DataError):
    """Requested sample cannot be drawn from the available records."""


class StageError(Exception):
    """Failure attributed to a named pipeline stage."""

    def __init__(self, stage: str, message: str, exit_code: int = 3):
        super().__init__(message)
        self.stage = stage
        self.exit_code = exit_code

    def __str__(self) -> str:
        return f"stage {self.stage}: {super().__str__()}"


def _stage(name: str):
    """Decorator mapping stage failures onto StageError with exit codes."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except (DataError, OSError, ValueError) as exc:
                raise StageError(name, str(exc), exit_code=2) from exc
            except Exception as exc:  # invariant violations and the like
                raise StageError(name, str(exc), exit_code=3) from exc

        return inner

    return wrap
