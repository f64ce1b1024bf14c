"""Cohorts and delimited-text ingestion.

The canonical on-disk form is a CSV with one row per subject::

    id,time,event,chrono_age,sex,race,cancer_site,intent,year_group,
    technique,predicted_age,risk,e0..e{D-1}

``time`` is follow-up in days, ``event`` is 1 for death and 0 for
censoring, and the ``e*`` columns hold an optional image embedding.
Unknown fields are left empty. Arbitrary column names are supported
through a schema mapping.

In memory a :class:`Cohort` holds one array per field.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._inputs import as_flags
from .errors import DataError, reading

DAYS_PER_YEAR = 365.25

SEX_LEVELS = ("female", "male")
RACE_LEVELS = ("white", "black", "asian", "hispanic", "other", "unknown")
INTENT_LEVELS = ("curative", "oligomet_ablation", "palliative", "unknown")
YEAR_GROUP_LEVELS = ("pre2016", "post2016", "unknown")

# Closed category universes. Free-text fields (cancer_site, technique)
# only normalize the empty string.
_CLOSED_LEVELS = {
    "sex": SEX_LEVELS,
    "race": RACE_LEVELS,
    "intent": INTENT_LEVELS,
    "year_group": YEAR_GROUP_LEVELS,
}

CATEGORY_FIELDS = ("sex", "race", "cancer_site", "intent", "year_group", "technique")

_CANONICAL_COLUMNS = (
    "id", "time", "event", "chrono_age", *CATEGORY_FIELDS, "predicted_age", "risk"
)

_MANDATORY = ("time", "event", "chrono_age")

# Data rows parsed at a time by load_cohort and formatted at a time by
# save_cohort: each holds the cell strings of one block, not of the file.
_ROW_BLOCK = 512

# One e* cell as repr(float) writes a finite value, which is what
# save_cohort writes through visage._floats.lines, the formatter that
# mirrors repr cell for cell. Every match is a number float() accepts,
# so a row of matching cells needs no float() to pass the drop rule;
# any other row is checked cell by cell. The digit runs are possessive
# and each optional part is a branch or nothing, which re tries faster
# than a possessive ?+. No part of a cell can give up a character that
# the next part accepts, so the language is that of the ? and + spelling.
# Each optional part keeps one backtracking point; the cell repeat of
# _strict_row stays possessive, so a line is still matched in linear time.
_STRICT_CELL = r"-?+[0-9]++(?:\.[0-9]++|)(?:e[-+][0-9]++|)"

# A str holding none of these characters (the delimiter, the quote, CR
# and LF) is one that csv.writer (excel dialect, "\n" line ends) writes
# as is. A str holding one is left to csv.writer, whose rule for a lone
# CR differs between Python releases.
_QUOTE_CHARS = re.compile('[,"\r\n]')

# Optional float columns: canonical CSV name -> Cohort attribute.
_OPTIONAL_COLUMNS = {
    "predicted_age": "predicted_age", "risk": "risk_raw", "risk_scaled": "risk_scaled"
}

# Event flag token (stripped, lower case) -> 1 death, 0 censored.
_EVENT_CODES = {
    **dict.fromkeys(("1", "true", "t", "yes"), 1),
    **dict.fromkeys(("0", "false", "f", "no"), 0),
}


# Cohort column -> (dtype, value of a column given as None); categoricals
# are str columns missing as "unknown", and a None embedding stays None.
_COLUMN_TYPES = {
    "ids": (object, ""),
    "event": (bool, False),
    "embedding": (float, None),
    **dict.fromkeys(("time", "chrono_age", *_OPTIONAL_COLUMNS.values()), (float, np.nan)),
}


def _frozen(value, dtype) -> bool:
    """True for a C-ordered array of ``dtype`` that nothing can write to:
    it is read-only and so is every array whose memory it views."""
    if not (isinstance(value, np.ndarray) and value.dtype == dtype and value.flags.c_contiguous):
        return False
    while isinstance(value, np.ndarray):
        if value.flags.writeable:
            return False
        value = value.base
    return value is None


@dataclass(frozen=True, eq=False)
class Cohort:
    """An immutable cohort held as parallel read-only columns.

    ``ids`` and the six categorical fields are object arrays of str,
    ``time`` (days) and ``chrono_age`` (years) float64, ``event`` bool.
    ``predicted_age``, ``risk_raw`` and ``risk_scaled`` are float64 with
    NaN where a value is missing, and ``embedding`` is an (n, D) float64
    matrix or None. The constructor copies each column, except an array
    of the column's dtype, C-ordered, that neither it nor any array it
    views is writeable: that one is shared, since no one can change it.
    An optional column passed as None is all missing. A column that
    cannot be converted to its dtype, or does not align with ``ids``,
    raises DataError naming it, as does an ``event`` value other than a
    bool or a number equal to 0 or 1, and so does a repeated or
    unhashable id. Other invalid values, such as a negative time or
    chrono_age, are representable; the functions that use a column
    reject what they cannot use.
    """

    ids: np.ndarray
    time: np.ndarray
    event: np.ndarray
    chrono_age: np.ndarray
    sex: np.ndarray | None = None
    race: np.ndarray | None = None
    cancer_site: np.ndarray | None = None
    intent: np.ndarray | None = None
    year_group: np.ndarray | None = None
    technique: np.ndarray | None = None
    predicted_age: np.ndarray | None = None
    risk_raw: np.ndarray | None = None
    risk_scaled: np.ndarray | None = None
    embedding: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.ids)
        for f in fields(self):
            dtype, missing = _COLUMN_TYPES.get(f.name, (object, "unknown"))
            value = getattr(self, f.name)
            if value is None and f.name == "embedding":
                continue
            if value is None:
                col = np.full(n, missing, dtype)
            elif _frozen(value, dtype):
                col = value
            else:
                try:
                    col = np.array(value, float if f.name == "event" else dtype, order="C")
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{f.name} cannot be read as {np.dtype(dtype)}: {exc}") from None
                if f.name == "event":
                    col = as_flags(f.name, col)
            if col.shape[:1] != (n,) or col.ndim != 1 + (f.name == "embedding"):
                raise DataError(f"{f.name} of shape {col.shape} does not align with {n} subjects")
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)
        # Repeated ids share a hash. Sorted hashes find the ones that
        # collide without a set of every id, whose table would outlive
        # the check in the heap; only ids of a colliding hash are compared.
        try:
            hashes = np.sort(np.fromiter(map(hash, self.ids), np.int64, n))
        except TypeError as exc:
            raise DataError(f"ids must be hashable: {exc}") from None
        shared = hashes[1:][hashes[1:] == hashes[:-1]]
        if shared.size:
            suspects, seen = set(shared.tolist()), set()
            for i in self.ids:
                if hash(i) in suspects:
                    if i in seen:
                        raise DataError(f"id {i!r} is repeated")
                    seen.add(i)

    @property
    def embedding_dim(self) -> int | None:
        return None if self.embedding is None else self.embedding.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        """Column equality, NaN equal to NaN."""
        if not isinstance(other, Cohort):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if (a is None or b is None) and a is not b:
                return False
            if a is not None and not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
                return False
        return True

    def times(self) -> np.ndarray:
        return self.time

    def events(self) -> np.ndarray:
        return self.event

    def embedding_matrix(self) -> np.ndarray:
        """The (n, D) embedding matrix; DataError when the cohort has none."""
        if self.embedding is None:
            raise DataError("cohort has no embeddings")
        return self.embedding


@dataclass(frozen=True)
class LoadResult:
    cohort: Cohort
    dropped: tuple[tuple[int, str], ...] = ()

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


def _normalize_category(field_name: str, raw: str) -> str:
    value = raw.strip()
    if not value:
        return "unknown"
    levels = _CLOSED_LEVELS.get(field_name)
    if levels is None:
        return value
    lowered = value.lower().replace(" ", "_").replace("-", "_")
    return lowered if lowered in levels else "unknown"


def _per_distinct(cells: Sequence[str], func) -> list:
    """``func`` of every cell, computed once per distinct cell."""
    lookup = {raw: func(raw) for raw in set(cells)}
    return list(map(lookup.__getitem__, cells))


def _parse_floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every cell, NaN where it fails, and the mask of those cells."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), float, n), np.zeros(n, dtype=bool)
    except ValueError:
        pass
    values = np.full(n, np.nan)
    bad = np.zeros(n, dtype=bool)
    for i, text in enumerate(cells):
        try:
            values[i] = float(text)
        except ValueError:
            bad[i] = True
    return values, bad


def _embedding_positions(header: Sequence[str]) -> list[int]:
    """Positions of the e0..e{D-1} columns in index order, requiring a contiguous range."""
    found = {int(m[1]): i for i, name in enumerate(header) if (m := re.match(r"e(\d+)$", name))}
    missing = sorted(set(range(max(found, default=-1) + 1)) - set(found))
    if missing:
        raise DataError(f"embedding columns not contiguous, missing e{missing[0]}")
    return [found[k] for k in range(len(found))]


def read_schema(path: str | Path) -> dict:
    """Load a schema-mapping JSON file.

    Recognized keys: ``columns`` (canonical name -> actual column name,
    an object of strings) and ``time_unit`` ("days", the default, or
    "years").
    """
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        schema = json.load(fh)
    if not isinstance(schema, dict):
        raise DataError("schema file must contain a JSON object")
    columns = schema.get("columns", {})
    if not isinstance(columns, dict):
        raise DataError(f"schema 'columns' must be a JSON object, got {type(columns).__name__}")
    for canonical, actual in columns.items():
        if not isinstance(actual, str):
            raise DataError(
                f"schema 'columns' entry {canonical!r} must be a string, got {actual!r}"
            )
    unit = schema.get("time_unit", "days")
    if unit not in ("days", "years"):
        raise DataError(f"unsupported time_unit {unit!r}")
    return schema


def _strict_row(dim: int) -> re.Pattern:
    """``dim`` strict e* cells joined by commas."""
    return re.compile(rf"{_STRICT_CELL}(?:,{_STRICT_CELL}){{{dim - 1}}}+", re.ASCII)


def _embedding_cells(
    rows: list[list[str]], e_positions: list[int], convert: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """The (n, D) e* values of csv rows (None unless ``convert``) and the
    mask of rows with an unparseable e* cell."""
    n, dim = len(rows), len(e_positions)
    picked = map(itemgetter(*e_positions), rows)
    values, bad = _parse_floats(list(chain.from_iterable(picked) if dim > 1 else picked))
    return values.reshape(n, dim) if convert else None, bad.reshape(n, dim).any(axis=1)


def _embedding_text(rows: list[list[str]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """As :func:`_embedding_cells` converting, for rows whose last cell is
    the text of their ``dim`` e* cells."""
    values, bad = _parse_floats(",".join(map(itemgetter(-1), rows)).split(","))
    return values.reshape(len(rows), dim), bad.reshape(len(rows), dim).any(axis=1)


def _screened_text(rows: list[tuple[str, ...]]) -> tuple[None, np.ndarray]:
    """As :func:`_embedding_cells` without converting, for rows cut by
    :func:`_screen_lines`: a row whose last cell is empty has strict e*
    cells and passes; any other row's e* cells, that cell less its
    leading comma, are checked with ``float()``."""
    bad = np.fromiter(map(bool, map(itemgetter(-1), rows)), bool, len(rows))
    for i in np.flatnonzero(bad).tolist():
        bad[i] = _parse_floats(rows[i][-1][1:].split(","))[1].any()
    return None, bad


def _parse_block(
    rows: list[list[str]],
    start: int,
    where: dict,
    embedding_of: Callable[[list[list[str]]], tuple] | None,
    years: bool,
) -> tuple[dict, list[tuple[int, str]]]:
    """The kept rows' columns of one block of data rows, and the dropped
    rows as (1-based data row number, reason); ``start`` data rows came
    before the block. ``embedding_of`` reads the block's e* cells (see
    :func:`_embedding_cells`); the kept rows' matrix is the
    ``embedding`` column when it returns one."""
    n = len(rows)

    def cells(canonical: str) -> list[str]:
        i = where[canonical]
        return [""] * n if i is None else list(map(itemgetter(i), rows))

    time, bad_time = _parse_floats(cells("time"))
    if years:
        time = time * DAYS_PER_YEAR
    event = np.array(
        _per_distinct(cells("event"), lambda raw: _EVENT_CODES.get(raw.strip().lower(), -1)),
        dtype=np.int8,
    )
    chrono_age, bad_age = _parse_floats(cells("chrono_age"))

    def missing_or_float(canonical: str) -> tuple[np.ndarray, np.ndarray]:
        # A blank cell is missing, as nan is; a block of empty cells (an
        # absent column's included) is all missing without parsing.
        texts = cells(canonical)
        if texts.count("") == n:
            return np.full(n, np.nan), np.zeros(n, dtype=bool)
        return _parse_floats([text if text.strip() else "nan" for text in texts])

    optional = {canonical: missing_or_float(canonical) for canonical in _OPTIONAL_COLUMNS}
    embedding, bad_embedding = None, np.zeros(n, dtype=bool)
    if embedding_of is not None:
        embedding, bad_embedding = embedding_of(rows)

    # Each row is dropped for the first check it fails, in this order.
    checks = (
        ("unparseable time", bad_time),
        ("non-positive time", ~(np.isfinite(time) & (time > 0))),
        ("unparseable event flag", event < 0),
        ("unparseable chrono_age", bad_age),
        ("non-finite chrono_age", ~np.isfinite(chrono_age)),
        *((f"unparseable {canonical}", bad) for canonical, (_, bad) in optional.items()),
        ("unparseable embedding value", bad_embedding),
    )
    failed = np.select([mask for _, mask in checks], range(len(checks)), -1)
    keep = failed < 0
    dropped = [(start + i + 1, checks[failed[i]][0]) for i in np.flatnonzero(~keep).tolist()]

    def kept(texts: list[str]) -> np.ndarray:
        return np.array(texts, dtype=object)[keep]

    columns = {
        "ids": kept([text.strip() or f"row{i}" for i, text in enumerate(cells("id"), start + 1)]),
        "time": time[keep],
        "event": event[keep] == 1,
        "chrono_age": chrono_age[keep],
        **{
            name: kept(_per_distinct(cells(name), partial(_normalize_category, name)))
            for name in CATEGORY_FIELDS
        },
        **{attr: optional[canonical][0][keep] for canonical, attr in _OPTIONAL_COLUMNS.items()},
    }
    if embedding is not None:
        columns["embedding"] = embedding[keep]
    return columns, dropped


def _csv_blocks(lines, width: int) -> Iterator[list[list[str]]]:
    """Blocks of at most ``_ROW_BLOCK`` rows that csv.reader reads from
    ``lines``. As csv.DictReader: blank lines are skipped, short rows padded."""
    rows = (
        row if len(row) >= width else row + [""] * (width - len(row))
        for row in csv.reader(lines)
        if row
    )
    return iter(lambda: list(islice(rows, _ROW_BLOCK)), [])


def _split_lines(lines: list[str], width: int, lead: int) -> list[list[str]] | None:
    """Each line cut at its first ``lead`` commas, or None when the lines
    need csv.reader: a quote, a carriage return, or a line (a blank one
    included) whose comma count is not ``width - 1``."""
    text = "".join(lines)
    if "\r" in text or '"' in text:
        return None
    parts = (text[:-1] if text.endswith("\n") else text).split("\n")
    if set(map(str.count, parts, repeat(","))) != {width - 1}:
        return None
    return list(map(str.split, parts, repeat(","), repeat(lead)))


def _line_pattern(lead: int, dim: int) -> re.Pattern:
    """A line of ``lead`` cells and then ``dim`` >= 1 e* cells, capturing
    the ``lead`` cells, then the e* text when a cell is not strict (see
    ``_STRICT_CELL``; empty when all are). That text keeps its leading
    comma, so that an empty cell of a one-column embedding is not read
    as a strict row."""
    cell = r"[^,\n]*+"
    other = rf"(,{cell}(?:,{cell}){{{dim - 1}}}+)"
    return re.compile(
        rf"^{','.join([f'({cell})'] * lead)}(?:,{_strict_row(dim).pattern}|{other})$",
        re.ASCII | re.MULTILINE,
    )


def _screen_lines(lines: list[str], pattern: re.Pattern) -> list[tuple[str, ...]] | None:
    """The ``lines`` cut and screened by ``pattern`` (see
    :func:`_line_pattern`) in one pass, or None when they need
    csv.reader: a quote, a carriage return, or a line (a blank one
    included) whose comma count is not the header's. As many matches as
    lines means one match per line, each line matched."""
    text = "".join(lines)
    if "\r" in text or '"' in text:
        return None
    rows = pattern.findall(text)
    return rows if len(rows) == len(lines) else None


def load_cohort(
    path: str | Path,
    schema: dict | None = None,
    with_embedding: bool = True,
) -> LoadResult:
    """Read a cohort CSV, returning the cohort plus dropped-row report.

    A row is dropped when its follow-up time is unparseable, not finite
    or not positive, its event flag or chrono_age is unparseable, its
    chrono_age is not finite, a non-blank optional value (predicted_age, risk, risk_scaled) is
    unparseable, or an e* embedding value is unparseable. Dropped rows
    are reported by (1-based data row number, reason), the reason being
    the first of those checks the row fails; kept rows are never mutated
    beyond category normalization. Blank lines are skipped and not
    numbered, short rows read as empty cells and extra cells are
    ignored. An empty or ``nan`` optional value is missing. ``schema``
    renames columns and may declare times in years, which are converted
    to days at 365.25 days per year. e* text columns give the cohort an
    embedding only when a row is kept.

    With ``with_embedding`` False the cohort's embedding is None. The
    drop rule is the same in both modes: every e* cell is still
    checked, but a row of cells in the plain form that repr writes
    (``-1.5e-07``) is cleared without converting them, and only other
    rows meet ``float()``.

    The file is parsed in blocks of ``_ROW_BLOCK`` rows, so memory holds
    the parsed columns plus the cell strings of one block, never the
    whole file as text. When the header holds no quote and the e*
    columns are its last columns in index order, as :func:`save_cohort`
    writes them, blocks of lines are cut rather than read by csv.reader:
    at their commas in a full load, and without the embedding by one
    pass of a line regex that captures the leading cells and screens
    the e* cells (see :func:`_line_pattern`). The first block that
    cannot be cut (one with a quote, a carriage return, a blank line or
    a line with another number of commas than the header) is where
    csv.reader takes over: it reads that block and the rest of the file.
    """
    schema = schema or {}
    rename = schema.get("columns", {})
    with open(path, "r", encoding="utf-8", newline="") as fh, reading(path):
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        header = next(csv.reader(chain([first], fh)))  # a quoted header may span lines
        position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
        for canonical in _MANDATORY:
            if rename.get(canonical, canonical) not in position:
                raise DataError(f"{path}: missing mandatory column {canonical!r}")
        e_positions = _embedding_positions(header)
        where = {
            canonical: position.get(rename.get(canonical, canonical))
            for canonical in ("id", *_MANDATORY, *CATEGORY_FIELDS, *_OPTIONAL_COLUMNS)
        }
        years = schema.get("time_unit", "days") == "years"

        width, dim = len(header), len(e_positions)
        lead = width - dim
        csv_embedding = (
            partial(_embedding_cells, e_positions=e_positions, convert=with_embedding)
            if dim else None
        )
        cut = None
        if (
            '"' not in first
            and e_positions == list(range(lead, width))
            and all(i is None or i < lead for i in where.values())
        ):
            cut = partial(_split_lines, width=width, lead=lead)
            cut_embedding = partial(_embedding_text, dim=dim) if dim else None
            if dim and not with_embedding:
                cut = partial(_screen_lines, pattern=_line_pattern(lead, dim))
                cut_embedding = _screened_text
        parts: dict[str, list[np.ndarray]] = {}
        dropped: list[tuple[int, str]] = []
        # The kept embedding rows, grown in place block by block (realloc,
        # not a second matrix plus a copy).
        embedding = np.empty((0, dim))
        n = 0

        def add(rows: list, embedding_of) -> None:
            nonlocal n
            columns, block_dropped = _parse_block(rows, n, where, embedding_of, years)
            n += len(rows)
            dropped.extend(block_dropped)
            if "embedding" in columns:
                values = columns.pop("embedding")
                used = len(embedding)
                embedding.resize((used + len(values), dim), refcheck=False)
                embedding[used:] = values
            for name, values in columns.items():
                parts.setdefault(name, []).append(values)

        # Blocks of lines are cut until cut first refuses one; csv.reader
        # reads that block and the rest of the file. A first, empty block
        # gives a file without data rows its empty columns.
        lines: list[str] = []
        while cut is not None and (lines := list(islice(fh, _ROW_BLOCK))):
            if (rows := cut(lines)) is None:
                break
            lines = []  # the rows hold the block's cells; free its lines first
            add(rows, cut_embedding)
            del rows  # free the block's cell strings before reading the next
        for rows in chain([[]], _csv_blocks(chain(lines, fh), width)):
            add(rows, csv_embedding)
            del rows

    # One column at a time, each block list freed once it is joined.
    columns = {name: np.concatenate(parts.pop(name)) for name in list(parts)}
    if len(embedding):
        columns["embedding"] = embedding
    for values in columns.values():
        values.flags.writeable = False
    return LoadResult(Cohort(**columns), tuple(dropped))


def _csv_fields(values: Sequence[str]) -> Sequence[str]:
    """Each value as csv.writer writes it in a row, quoted where needed.

    Only a str holding a character of ``_QUOTE_CHARS``, or a value that
    is not a str, goes through csv.writer; any other str is written as
    is. When no value needs csv.writer, ``values`` itself is returned."""
    try:
        if not _QUOTE_CHARS.search("".join(values)):
            return values
    except TypeError:  # a value that is not a str
        pass
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")

    def field(value) -> str:
        if isinstance(value, str) and not _QUOTE_CHARS.search(value):
            return value
        writer.writerow((value, ""))  # a lone "" would be quoted
        return lines.pop()[:-2]

    return _per_distinct(values, field)


def save_cohort(
    cohort: Cohort, path: str | Path, embedding_blocks: Iterable[np.ndarray] | None = None
) -> None:
    """Write the canonical CSV form. Floats are written as repr writes
    them, so they round-trip; missing values are written empty.

    The header, and whether it has a ``risk_scaled`` column, come from
    the whole cohort; the rows are formatted and written in blocks of
    ``_ROW_BLOCK``, so memory holds the cohort plus the cell strings of
    one block, not a string copy of every column. The float cells of a
    block are formatted by array, not by one repr call per cell (see
    :mod:`visage._floats`).

    ``embedding_blocks``, when given, supplies the e* cells instead of
    ``cohort.embedding``: one (rows, D) array per block of rows, in order,
    as :meth:`visage.synth.SimResult.embedding_blocks` redraws them, so
    the matrix is never held whole. D is the first block's width, and
    no block means no e* columns. A block of another shape, or one too
    many or too few, raises DataError."""
    from ._floats import lines

    n = len(cohort)
    if embedding_blocks is None:
        dim = cohort.embedding_dim or 0
        blocks = (cohort.embedding[start : start + _ROW_BLOCK] for start in range(0, n, _ROW_BLOCK))
    else:
        blocks = iter(embedding_blocks)
        first = next(blocks, None)
        dim = 0 if first is None else first.shape[-1]
        blocks = chain([first], blocks)
    header = list(_CANONICAL_COLUMNS)
    optional = [cohort.predicted_age, cohort.risk_raw]
    if not np.all(np.isnan(cohort.risk_scaled)):
        header.append("risk_scaled")
        optional.append(cohort.risk_scaled)
    header.extend(f"e{i}" for i in range(dim))
    texts = [getattr(cohort, name) for name in CATEGORY_FIELDS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            # Only the text columns can need quoting: a float's repr, the
            # event flag and an empty cell never do, so rows are joined
            # directly. The optional columns are adjacent, and a missing
            # one (NaN, whose repr is the only cell text holding "nan")
            # is written empty.
            columns = [
                _csv_fields(cohort.ids[block].tolist()),
                lines(cohort.time[block, None]),
                np.where(cohort.event[block], "1", "0").tolist(),
                lines(cohort.chrono_age[block, None]),
                *(_csv_fields(values[block].tolist()) for values in texts),
                [
                    row.replace("nan", "")
                    for row in lines(np.stack([values[block] for values in optional], axis=1))
                ],
            ]
            if dim:
                values = np.asarray(next(blocks, ()), dtype=float)
                rows = min(_ROW_BLOCK, n - start)
                if values.shape != (rows, dim):
                    raise DataError(
                        f"embedding block at row {start} has shape {values.shape}, "
                        f"not ({rows}, {dim})"
                    )
                columns.append(lines(values))
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    if dim and next(blocks, None) is not None:
        raise DataError(f"embedding blocks run past the cohort's {n} rows")
