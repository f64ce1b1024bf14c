"""Exception hierarchy shared across the toolkit.

Two broad classes matter to callers: problems with the data or its files
(DataError, mapped to exit code 2 by the command line tool) and problems
arising inside an estimation or training procedure (AnalysisError, exit
code 1). Everything raised on purpose derives from VisageError.
:func:`reading` turns the decode and parse errors of a file reader into
DataError.
"""

import csv
import json
from contextlib import contextmanager


class VisageError(Exception):
    """Base class for all errors raised by this package."""


class DataError(VisageError):
    """Malformed input: files, schemas, column values, spec mismatches."""


class AnalysisError(VisageError):
    """A procedure could not produce a valid result from valid input."""


class MedianNotReachedError(AnalysisError):
    """Reverse Kaplan-Meier never dropped to one half."""


class SingularDesignError(AnalysisError):
    """The information matrix is numerically singular."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class NoComparablePairsError(AnalysisError):
    """No usable pairs for a rank-based statistic."""


class ConstantInputError(AnalysisError):
    """An input that must vary is constant."""


@contextmanager
def reading(path):
    """Raise a decode or CSV/JSON parse error met inside the block as a
    DataError that names ``path`` (and the line, where JSON knows it)."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None
    except (csv.Error, json.JSONDecodeError) as err:
        raise DataError(f"{path}: {err}") from None
