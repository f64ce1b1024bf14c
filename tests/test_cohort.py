"""Ingestion, serialization round trips, and the constructor's column rules."""

from __future__ import annotations

import csv
import dataclasses
import re
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from visage import cohort as cohort_mod
from visage.cohort import (
    DAYS_PER_YEAR,
    Cohort,
    _normalize_category,
    _strict_row,
    load_cohort,
    read_schema,
    save_cohort,
)
from visage.errors import DataError
from visage.synth import SimSpec, simulate


HEADER = (
    "id,time,event,chrono_age,sex,race,cancer_site,intent,"
    "year_group,technique,predicted_age,risk"
)


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoad:
    def test_three_valid_rows(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,120,1,61.5,female,white,breast,curative,pre2016,imrt,63.0,0.4",
                "b,365,0,70.0,male,black,lung,palliative,post2016,sbrt,,",
                "c,30,1,55.0,female,asian,gi,curative,pre2016,conformal,52.1,1.9",
            ],
        )
        result = load_cohort(p)
        assert len(result.cohort) == 3
        assert result.n_dropped == 0
        cohort = result.cohort
        assert cohort.ids[0] == "a"
        assert cohort.time[0] == 120.0
        assert cohort.event[0].item() is True
        assert cohort.predicted_age[0] == 63.0
        assert cohort.risk_raw[0] == 0.4
        assert np.isnan(cohort.predicted_age[1]) and np.isnan(cohort.risk_raw[1])

    def test_zero_time_row_dropped(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,0,1,61.5,female,white,breast,curative,pre2016,imrt,,",
                "b,365,0,70.0,male,black,lung,palliative,post2016,sbrt,,",
            ],
        )
        result = load_cohort(p)
        assert len(result.cohort) == 1
        assert result.n_dropped == 1
        assert result.dropped[0] == (1, "non-positive time")

    def test_drop_reasons_enumerated(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,oops,1,61.5,,,,,,,,",
                "b,120,maybe,61.5,,,,,,,,",
                "c,120,1,old,,,,,,,,",
                "d,120,1,61.5,,,,,,,not_a_number,",
                "e,-3,1,61.5,,,,,,,,",
            ],
        )
        result = load_cohort(p)
        assert len(result.cohort) == 0
        reasons = [reason for _, reason in result.dropped]
        assert reasons == [
            "unparseable time",
            "unparseable event flag",
            "unparseable chrono_age",
            "unparseable predicted_age",
            "non-positive time",
        ]

    def test_non_finite_chrono_age_dropped(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,120,1,61.5,,,,,,,,",
                "b,130,0,nan,,,,,,,,",
                "c,140,1,inf,,,,,,,,",
            ],
        )
        result = load_cohort(p)
        assert result.dropped == ((2, "non-finite chrono_age"), (3, "non-finite chrono_age"))
        assert result.cohort.ids.tolist() == ["a"]
        assert result.cohort.chrono_age.tolist() == [61.5]

    def test_blank_id_fallback_repeating_an_id_rejected(self, tmp_path):
        """A blank id reads as row<n>; when another row's id is already
        that, the load fails naming it rather than keeping two."""
        p = tmp_path / "c.csv"
        write_csv(p, ["row2,120,1,61.5,,,,,,,,", ",130,0,62.0,,,,,,,,"])
        with pytest.raises(DataError, match="'row2'"):
            load_cohort(p)

    def test_embedding_columns_contiguous(self, tmp_path):
        p = tmp_path / "c.csv"
        dim = 768
        header = HEADER + "," + ",".join(f"e{i}" for i in range(dim))
        values = ",".join(str(0.001 * i) for i in range(dim))
        write_csv(p, [f"a,120,1,61.5,,,,,,,,,{values}"], header=header)
        result = load_cohort(p)
        assert result.cohort.embedding_dim == 768
        assert len(result.cohort.embedding[0]) == 768

    def test_embedding_gap_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        header = HEADER + ",e0,e2"
        write_csv(p, ["a,120,1,61.5,,,,,,,,,0.1,0.3"], header=header)
        with pytest.raises(DataError, match="e1"):
            load_cohort(p)

    def test_missing_mandatory_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,time,chrono_age\na,120,61.5\n")
        with pytest.raises(DataError, match="event"):
            load_cohort(p)

    def test_unknown_categories_normalized(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,120,1,61.5,FEMALE,Martian,breast,curative,pre2016,imrt,,",
                "b,120,1,61.5,,,,,,,,",
            ],
        )
        cohort = load_cohort(p).cohort
        assert cohort.sex[0] == "female"  # case-normalized
        assert cohort.race[0] == "unknown"  # not in the universe
        assert cohort.sex[1] == "unknown"  # empty cell

    def test_event_flag_tokens(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(
            p,
            [
                "a,120,true,61.5,,,,,,,,",
                "b,120,No,61.5,,,,,,,,",
                "c,120,T,61.5,,,,,,,,",
            ],
        )
        events = load_cohort(p).cohort.events()
        np.testing.assert_array_equal(events, [True, False, True])

    def test_blank_id_gets_row_number(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, [",120,1,61.5,,,,,,,,"])
        assert load_cohort(p).cohort.ids[0] == "row1"

    def test_deterministic(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, ["a,120,1,61.5,female,white,breast,curative,pre2016,imrt,63,0.4"])
        assert load_cohort(p) == load_cohort(p)


class TestSchema:
    def test_column_renames(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "subject,fu_days,dead,age_at_rt\nx1,200,1,58.2\n"
        )
        schema = {
            "columns": {
                "id": "subject",
                "time": "fu_days",
                "event": "dead",
                "chrono_age": "age_at_rt",
            }
        }
        cohort = load_cohort(p, schema=schema).cohort
        first = (cohort.ids[0], cohort.time[0], cohort.event[0], cohort.chrono_age[0])
        assert first == ("x1", 200.0, True, 58.2)

    def test_years_converted_to_days(self, tmp_path):
        p = tmp_path / "c.csv"
        write_csv(p, ["a,2.0,1,61.5,,,,,,,,"])
        cohort = load_cohort(p, schema={"time_unit": "years"}).cohort
        assert cohort.time[0] == 730.5  # 2 x 365.25

    def test_read_schema_rejects_bad_unit(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"time_unit": "fortnights"}')
        with pytest.raises(DataError):
            read_schema(p)

    def test_read_schema_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"columns": {"time": "fu"}, "time_unit": "years"}')
        schema = read_schema(p)
        assert schema["columns"] == {"time": "fu"}

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"columns": ["time"]}', "'columns'"),
            ('{"columns": "fu"}', "'columns'"),
            ('{"columns": {"time": 3}}', "'time'"),
            ('{"columns": {"time": "fu", "event": null}}', "'event'"),
            ('{"columns": {"id": ["subject"]}}', "'id'"),
        ],
    )
    def test_read_schema_rejects_bad_columns(self, tmp_path, text, named):
        """``columns`` must map names to strings; the error names the key."""
        p = tmp_path / "s.json"
        p.write_text(text)
        with pytest.raises(DataError, match=named):
            read_schema(p)


class TestRoundTrip:
    def test_save_load_equal_fieldwise(self, tmp_path):
        cohort = Cohort(
            ids=["a", "b"],
            time=[120.0, 365.0],
            event=[True, False],
            chrono_age=[61.5, 70.0],
            sex=["female", "unknown"],
            race=["white", "unknown"],
            cancer_site=["breast", "unknown"],
            intent=["curative", "unknown"],
            year_group=["pre2016", "unknown"],
            technique=["imrt", "unknown"],
            predicted_age=[63.25, None],
            risk_raw=[0.123456789012345, None],
            risk_scaled=[0.5, None],
            embedding=[(0.1, -0.2, 0.3), (1.0, 2.0, 3.0)],
        )
        p = tmp_path / "c.csv"
        save_cohort(cohort, p)
        back = load_cohort(p).cohort
        assert back == cohort

    def test_save_bytes_stable(self, tmp_path):
        cohort = Cohort(ids=["a"], time=[1.5], event=[True], chrono_age=[60.0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cohort(cohort, p1)
        save_cohort(cohort, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_text_fields_written_as_csv_writer_writes_them(self):
        """Only a value that csv.writer would quote is passed to it: over
        ids with commas, quotes, CR, LF, spaces, an empty id, non-ASCII
        text and values that are not str, each comes out as csv.writer
        writes it alone in a row."""
        corpus = ["s00001", "", " ", " padded ", "a,b", 'say "hi"', '"', "cr\rin",
                  "lf\nin", "\r\n", "tab\there", "été", "日本語", "'single'", "a;b", 7, 2.5]

        def writer_field(value):
            lines = []
            csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerow(
                (value, "")
            )
            return lines[0][:-2]

        assert cohort_mod._csv_fields(corpus) == [writer_field(v) for v in corpus]
        plain = [v for v in corpus if isinstance(v, str) and not re.search('[,"\r\n]', v)]
        assert cohort_mod._csv_fields(plain) is plain

    def test_quoted_ids_round_trip(self, tmp_path):
        ids = ["plain", "a,b", 'q"uote', "line\nbreak", "", "é"]
        n = len(ids)
        cohort = Cohort(ids=ids, time=[1.0] * n, event=[True] * n, chrono_age=[50.0] * n)
        path = tmp_path / "c.csv"
        save_cohort(cohort, path)
        # an empty id reads back as its row number
        assert load_cohort(path).cohort.ids.tolist() == [*ids[:4], "row5", "é"]

    @pytest.mark.parametrize(
        "blocks, message",
        [([np.zeros((512, 2)), np.zeros((100, 3))], r"row 512 has shape \(100, 3\)"),
         ([np.zeros((512, 2))], r"row 512 has shape \(0,\)"),
         ([np.zeros((512, 2)), np.zeros((88, 2)), np.zeros((1, 2))], "past"),
         ([np.zeros((600, 2))], r"row 0 has shape \(600, 2\)")],
        ids=["wide", "missing", "extra", "long"],
    )
    def test_embedding_blocks_must_align(self, tmp_path, blocks, message):
        """Given e* blocks must hold the rows of each block of 512 in
        turn, all of one width, and no more."""
        n = 600
        cohort = Cohort(ids=[f"s{i}" for i in range(n)], time=np.ones(n),
                        event=np.zeros(n, bool), chrono_age=np.full(n, 50.0))
        with pytest.raises(DataError, match=message):
            save_cohort(cohort, tmp_path / "c.csv", blocks)


class TestConstructor:
    def test_duplicate_ids_named(self):
        """Every cohort has unique ids: a repeated one raises DataError
        naming the first id that repeats."""
        with pytest.raises(DataError, match="'a'"):
            Cohort(ids=["a", "b", "a"], time=[10.0, 20.0, 30.0], event=[True, False, True],
                   chrono_age=[60.0, 61.0, 62.0])

    @pytest.mark.parametrize(
        "ids, repeated",
        [(["b", "a", "c", "a", "b"], "'a'"), ([-1, -2], None), ([-1, -2, 5, -2, -1], "-2"),
         ([3, 3.0], "3.0")],
        ids=["first_in_row_order", "hash_collision_only", "collision_and_repeat", "equal_types"],
    )
    def test_repeated_id_found_in_row_order(self, ids, repeated):
        """The repeat named is the first id, in row order, equal to an
        earlier one; ids that only share a hash (-1 and -2 do in CPython)
        are distinct."""
        n = len(ids)
        columns = dict(ids=ids, time=np.ones(n), event=np.zeros(n, bool),
                       chrono_age=np.full(n, 50.0))
        if repeated is None:
            assert len(Cohort(**columns)) == n
        else:
            with pytest.raises(DataError, match=rf"^id {re.escape(repeated)} is repeated"):
                Cohort(**columns)

    @pytest.mark.parametrize(
        "field, value",
        [("time", ["oops", 20.0]), ("chrono_age", [60.0, "old"]),
         ("embedding", [(0.1, 0.2), (0.1, 0.2, 0.3)]), ("ids", [[1], [2, 3]])],
        ids=["time", "chrono_age", "ragged_embedding", "unhashable_ids"],
    )
    def test_malformed_column_rejected(self, field, value):
        """A column that cannot be converted to its dtype (text in a float
        column, a ragged embedding), or ids that cannot be hashed, raise
        DataError naming the field."""
        columns = dict(ids=["a", "b"], time=[10.0, 20.0], event=[True, False],
                       chrono_age=[60.0, 60.0])
        columns[field] = value
        with pytest.raises(DataError, match=rf"^{field}\b"):
            Cohort(**columns)

    @pytest.mark.parametrize(
        "event, expected",
        [(["0", "no"], None), ([2.0, float("nan")], None), ([0.5, 1], None),
         ([1, 0], [True, False]), (["1", "0"], [True, False]),
         ([True, False], [True, False]), (np.array([1, 0], dtype=np.int8), [True, False])],
        ids=["words", "two_nan", "half", "ints", "digit_strings", "bools", "int8"],
    )
    def test_event_flags(self, event, expected):
        """``event`` takes what the numeric functions take as events:
        bools, or numbers equal to 0 or 1; anything else raises
        DataError naming it instead of reading as a death."""
        columns = dict(ids=["a", "b"], time=[10.0, 20.0], chrono_age=[60.0, 60.0])
        if expected is None:
            with pytest.raises(DataError, match=r"^event\b"):
                Cohort(event=event, **columns)
        else:
            col = Cohort(event=event, **columns).event
            assert col.dtype == bool and col.tolist() == expected


@dataclasses.dataclass(frozen=True)
class Record:
    """One subject as the row-wise oracles below see it: Python scalars,
    None where a value is missing."""

    id: str
    time: float
    event: bool
    chrono_age: float
    sex: str = "unknown"
    race: str = "unknown"
    cancer_site: str = "unknown"
    intent: str = "unknown"
    year_group: str = "unknown"
    technique: str = "unknown"
    predicted_age: float | None = None
    risk_raw: float | None = None
    risk_scaled: float | None = None
    embedding: tuple[float, ...] | None = None


def records_cohort(records, dim=None) -> Cohort:
    """The Cohort holding ``records``, built with the column constructor;
    ``dim`` is their embedding length, None when they have none."""
    columns = {f.name: [getattr(r, f.name) for r in records] for f in dataclasses.fields(Record)}
    embedding = columns.pop("embedding")
    embedding = None if dim is None else np.reshape(embedding, (len(records), dim))
    return Cohort(ids=columns.pop("id"), embedding=embedding, **columns)


def rowwise_load_cohort(path, schema=None):
    """The row-by-row loader that the columnar one replaced, through
    csv.DictReader and one Record per row. Returns the records,
    the dropped rows and the embedding dimension."""
    schema = schema or {}
    rename = schema.get("columns", {})
    time_unit = schema.get("time_unit", "days")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = list(reader.fieldnames)
        rows = list(reader)

    def actual(canonical):
        name = rename.get(canonical, canonical)
        return name if name in header else None

    def parse_event(raw):
        token = raw.strip().lower()
        if token in ("1", "true", "t", "yes"):
            return True
        if token in ("0", "false", "f", "no"):
            return False
        raise ValueError(raw)

    def embedding_columns(header):
        found = {}
        for name in header:
            m = re.match(r"^e(\d+)$", name)
            if m:
                found[int(m.group(1))] = name
        if not found:
            return ()
        dim = max(found) + 1
        missing = [i for i in range(dim) if i not in found]
        if missing:
            raise DataError(f"embedding columns not contiguous, missing e{missing[0]}")
        return tuple(found[i] for i in range(dim))

    emb_cols = embedding_columns(header)

    records, dropped = [], []
    for row_number, row in enumerate(rows, start=1):
        def cell(canonical):
            name = actual(canonical)
            return (row.get(name) or "") if name else ""

        try:
            time_value = float(cell("time"))
        except ValueError:
            dropped.append((row_number, "unparseable time"))
            continue
        if time_unit == "years":
            time_value *= DAYS_PER_YEAR
        if not np.isfinite(time_value) or time_value <= 0:
            dropped.append((row_number, "non-positive time"))
            continue
        try:
            event = parse_event(cell("event"))
        except ValueError:
            dropped.append((row_number, "unparseable event flag"))
            continue
        try:
            chrono_age = float(cell("chrono_age"))
        except ValueError:
            dropped.append((row_number, "unparseable chrono_age"))
            continue
        if not np.isfinite(chrono_age):
            dropped.append((row_number, "non-finite chrono_age"))
            continue
        optional, bad_optional = {}, None
        for canonical, attr in (
            ("predicted_age", "predicted_age"),
            ("risk", "risk_raw"),
            ("risk_scaled", "risk_scaled"),
        ):
            text = cell(canonical).strip()
            if not text:
                optional[attr] = None
                continue
            try:
                optional[attr] = float(text)
            except ValueError:
                bad_optional = canonical
                break
        if bad_optional:
            dropped.append((row_number, f"unparseable {bad_optional}"))
            continue
        if emb_cols:
            try:
                embedding = tuple(float(row.get(c) or "") for c in emb_cols)
            except ValueError:
                dropped.append((row_number, "unparseable embedding value"))
                continue
        else:
            embedding = None
        records.append(
            Record(
                id=cell("id").strip() or f"row{row_number}",
                time=time_value,
                event=event,
                chrono_age=chrono_age,
                **{
                    name: _normalize_category(name, cell(name))
                    for name in ("sex", "race", "cancer_site", "intent", "year_group",
                                 "technique")
                },
                embedding=embedding,
                **optional,
            )
        )
    dim = None
    if records and records[0].embedding is not None:
        dim = len(records[0].embedding)
    return records, tuple(dropped), dim


def rowwise_save_cohort(records, dim, path):
    """The row-by-row writer that the columnar one replaced."""
    any_scaled = any(r.risk_scaled is not None for r in records)
    header = HEADER.split(",") + (["risk_scaled"] if any_scaled else [])
    header += [f"e{i}" for i in range(dim or 0)]

    def fmt(value):
        return "" if value is None else repr(float(value))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in records:
            row = [r.id, repr(float(r.time)), "1" if r.event else "0", repr(float(r.chrono_age)),
                   r.sex, r.race, r.cancer_site, r.intent, r.year_group, r.technique,
                   fmt(r.predicted_age), fmt(r.risk_raw)]
            if any_scaled:
                row.append(fmt(r.risk_scaled))
            if dim:
                row.extend(repr(float(v)) for v in r.embedding)
            writer.writerow(row)


# Renamed columns with times in years, e* columns out of order, an
# unrelated column and a repeated name (the last column wins, as in
# csv.DictReader). Rows cover every drop reason, alone and with later
# checks failing too, a blank line, short and long rows, quoted ids and
# free text with commas and quotes, whitespace-padded numbers, inf, 1_0
# and mixed-case event tokens.
ORACLE_SCHEMA = {
    "columns": {"id": "subject", "time": "fu_years", "event": "dead",
                "chrono_age": "age", "cancer_site": "site"},
    "time_unit": "years",
}
ORACLE_CSV = '''\
subject,fu_years,dead,age,sex,race,site,intent,year_group,technique,predicted_age,risk,risk_scaled,e1,note,e0,e2,race
"a,1",2.0,Yes,61.5,FEMALE,White,"breast, left",Curative,pre2016,"imrt, ""6MV""",63.0,0.4,0.5,0.1,x,0.2,0.3,Asian

b, 1.5 ,no, 70 ,male,Black,lung,palliative,Post2016,sbrt, 71.25 ,,, 1 ,, 2 ,3
short,0.5,T,55
long,1_0,F,40.0,,,,oligomet-ablation,,,,,,0.5,,0.6,0.7,extra,"more, cells"
e,oops,1,60,,,,,,,,,,1,,2,3
f,-1,1,60,,,,,,,,,,1,,2,3
g,inf,1,60,,,,,,,,,,1,,2,3
h,1,maybe,60,,,,,,,,,,1,,2,3
i,1,1,old,,,,,,,,,,1,,2,3
j,1,1,60,,,,,,,abc,,,1,,2,3
k,1,1,60,,,,,,,,xyz,,1,,2,3
l,1,1,60,,,,,,,,,bad,1,,2,3
m,1,1,60,,,,,,,,,,zz,,2,3
r,1,maybe,old,,,,,,,abc,,,zz,,2,3
s,oops,maybe,old,,,,,,,,,,1,,2,3
t,1,1,60,,,,,,,,xyz,bad,zz,,2,3
,3,TRUE,inf,,Martian,,,,,,1e-3,1.5,inf,,-0.0,1e300
"q""uote",0.25,0,50,Male,hispanic,"gi, upper",PALLIATIVE,unknown,sbrt,49.5,-2,0,0,,0,0


o,nan,1,60,,,,,,,,,,1,,2,3
p, 2 , No ,1_5.5,female,,skin,,,conformal, -3 ,  ,0.25,1,,2,3
'''


# Blank lines and dropped rows on the edges of blocks of 1, 2 and 3 rows:
# rows 1-3 are all dropped (a whole first block of 3), blank lines come
# before rows 4 and 8 and after the last row, rows 7 and 11 are dropped
# after a kept row, row 12 is the last and is dropped.
EDGE_CSV = ORACLE_CSV.splitlines()[0] + """
x1,oops,1,60,,,,,,,,,,1,,2,3
x2,1,1,60,,,,,,,,,,zz,,2,3
x3,0,1,60,,,,,,,,,,1,,2,3

x4,1,1,60,,,,,,,,,,1,,2,3
x5,2,0,61,,,,,,,,,,1,,2,3
x6,3,1,62,male,,,,,,,,,1,,2,3
x7,3,maybe,62,,,,,,,,,,1,,2,3

x8,4,1,63,,,,,,,,,0.5,1,,2,3
x9,5,0,64,,,,,,,,,,1,,2,3
x10,6,1,65,,,,,,,,,,1,,2,3
x11,6,1,65,,,,,,,,,7x,1,,2,3
x12,7,1,old,,,,,,,,,,1,,2,3

"""
# The only risk_scaled value sits on the last row, in a late block for
# small block sizes: the writer's header must still have the column.
LATE_SCALED_CSV = ORACLE_CSV.splitlines()[0] + "".join(
    f"\ny{i},{i},1,60,,,,,,,,,{'0.75' if i == 7 else ''},1,,2,3" for i in range(1, 8)
) + "\n"
HEADER_ONLY_CSV = ORACLE_CSV.splitlines()[0] + "\n"
ALL_BLANK_CSV = HEADER_ONLY_CSV + "\n\n\n"
ALL_DROPPED_CSV = EDGE_CSV.split("x4,")[0]


# The save_cohort layout (e* last, in order), whose quote-free blocks
# are cut at commas instead of read by csv.reader. LAYOUT_CLEAN cuts
# every block: padded, 1_0, inf, nan, fullwidth, 1e500 and subnormal e*
# cells are kept, an empty or non-numeric one drops the row, as do
# earlier checks. LAYOUT_MESSY adds a blank line, short and long rows,
# CRLF and lone CR line ends, a quoted id, a quoted newline and a quoted
# "2,5" e* cell, one unparseable cell to csv.reader. In LAYOUT_RAGGED a
# short and a long row have a whole row's commas on average; in
# LAYOUT_LONE_CR a lone CR splits a row into two halves whose commas
# add up to a whole row's. Neither may be read as whole rows.
LAYOUT_HEADER = HEADER + ",risk_scaled,e0,e1,e2"
LAYOUT_CLEAN = LAYOUT_HEADER + """
a1,100,1,61.5,FEMALE,white,lung,Curative,pre2016,imrt,63.0,0.4,0.5,0.1,0.2,0.3
a2,200,0,70.0,male,black,breast,palliative,post2016,sbrt,,,, 1.5 ,2\t,3
a3,300,yes,55.0,,,,,,,,,,1_0,inf,nan
a4,400,1,60.0,,,,,,,,,,1,abc,3
a5,500,1,60.0,,,,,,,,,,1,,3
a6,oops,1,60.0,,,,,,,,,,zz,2,3
a7,600,1,60.0,,,,,,,,,,1e500,4.9e-324,-0.0
a8,700,0,old,,,,,,,,,,1,2,3
a9,800,0,61.0,,,,,,,,,,\uff11.5,-1E5,+2
a10,900,1,62.0,,,,,,,,,0.25,1.0e-07,1.5e+300,-12345678901234567890.5
"""
LAYOUT_RAGGED = LAYOUT_CLEAN + """\
b1,700,1,60.0,,,,,,,,,,1,2
b2,800,0,61.0,,,,,,,,,,1,2,3,4
"""
LAYOUT_LONE_CR = LAYOUT_CLEAN.replace("a4,400,1,60.0,,,,,,,,", "a4,400,1,60.0,,,,,,,,\r")
LAYOUT_MESSY = LAYOUT_CLEAN + """
b1,700,1,60.0,,,,,,,,,,1,2
b2,800,0,61.0,,,,,,,,,,1,2,3,4,extra
b3,900,1,62.0,,,,,,,,,,1,2,3\r
b4,950,0,63.0,,,,,,,,,,1,x,3\r
b5,960,0,63.5,,,,,,,,,,1,2,3\rb5x,970,1,64.0,,,,,,,,,,1,2,3
"b,6",1000,1,64.0,,,,,,,,,,1,2,3
b7,1100,1,65.0,,,,,,"two
lines",,,,1,2,3
b8,1200,0,66.0,,,,,,,,,,1,2,zz
b9,1300,0,67.0,,,,,,,,,,1,2,3
b10,1400,1,68.0,,,,,,,,,,1,"2,5",3
"""


def long_layout(rows_before_quote: int) -> str:
    """Clean rows, every 50th with a bad e* cell, then a row whose quoted
    newline runs from data line ``rows_before_quote + 1`` into the next,
    then clean rows again."""
    def row(i, e1="2.5"):
        return f"r{i},{100 + i},{i % 2},{50 + i % 30}.0,,,,,,,,,,-1.25,{e1},{i}.0"

    lines = [row(i, "bad" if i % 50 == 7 else "2.5") for i in range(rows_before_quote)]
    lines.append('q,5,1,60.0,,,,,,"across\nthe edge",,,,1,2,3')
    lines += [row(i) for i in range(rows_before_quote, rows_before_quote + 5)]
    return LAYOUT_HEADER + "\n" + "\n".join(lines) + "\n"


class TestRowwiseOracle:
    """The columnar loader and writer against the row-by-row originals."""

    def check(self, path, tmp_path, schema=ORACLE_SCHEMA):
        """Both loading modes against the oracle; returns the converting load."""
        records, dropped, dim = rowwise_load_cohort(path, schema)
        result = load_cohort(path, schema)
        assert result.dropped == dropped
        assert result.cohort == records_cohort(records, dim)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        rowwise_save_cohort(records, dim, old)
        save_cohort(result.cohort, new)
        assert new.read_bytes() == old.read_bytes()
        checked = load_cohort(path, schema, with_embedding=False)
        assert checked.dropped == dropped
        assert checked.cohort == records_cohort(
            [dataclasses.replace(r, embedding=None) for r in records]
        )
        return result

    def test_text_embedding(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(ORACLE_CSV, encoding="utf-8")
        result = self.check(path, tmp_path)
        reasons = {reason for _, reason in result.dropped}
        assert reasons == {
            "unparseable time", "non-positive time", "unparseable event flag",
            "unparseable chrono_age", "non-finite chrono_age", "unparseable predicted_age",
            "unparseable risk", "unparseable risk_scaled", "unparseable embedding value",
        }
        assert len(result.cohort) == 5

    @pytest.mark.parametrize("row_block", [1, 2, 3, cohort_mod._ROW_BLOCK])
    @pytest.mark.parametrize(
        "text",
        [ORACLE_CSV, EDGE_CSV, LATE_SCALED_CSV, HEADER_ONLY_CSV, ALL_BLANK_CSV,
         ALL_DROPPED_CSV],
        ids=["oracle", "edges", "late_scaled", "header_only", "all_blank", "all_dropped"],
    )
    def test_row_blocks(self, tmp_path, monkeypatch, text, row_block):
        """Any block size reads and writes as the row-by-row loader and
        writer do."""
        monkeypatch.setattr(cohort_mod, "_ROW_BLOCK", row_block)
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        self.check(path, tmp_path)

    @pytest.mark.parametrize("row_block", [1, 2, cohort_mod._ROW_BLOCK])
    @pytest.mark.parametrize("dim", [None, 3])
    def test_save_empty_cohort(self, tmp_path, monkeypatch, row_block, dim):
        """A cohort without rows is written as its header alone, e*
        columns included when it has a (0, D) embedding."""
        monkeypatch.setattr(cohort_mod, "_ROW_BLOCK", row_block)
        cohort = Cohort(ids=[], time=[], event=[], chrono_age=[],
                        embedding=None if dim is None else np.zeros((0, dim)))
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        rowwise_save_cohort([], dim, old)
        save_cohort(cohort, new)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("row_block", [1, 2, 3, 512])
    @pytest.mark.parametrize(
        "text,cut",
        [(LAYOUT_CLEAN, all), (LAYOUT_MESSY, lambda cuts: True),
         (long_layout(511), lambda cuts: not cuts[-1]),
         (LAYOUT_CLEAN.replace("\n", "\r\n"), lambda cuts: not any(cuts)),
         (LAYOUT_RAGGED, lambda cuts: not all(cuts)),
         (LAYOUT_LONE_CR, lambda cuts: not all(cuts))],
        ids=["clean", "messy", "long", "crlf", "ragged", "lone_cr"],
    )
    def test_save_layout(self, tmp_path, monkeypatch, text, cut, row_block):
        """The save_cohort layout reads as the row-by-row loader does,
        whether its blocks are cut or read by csv.reader. In each loading
        mode the list of which blocks the line pattern cut (the converting
        one captures one more group than the checking one) is a run of
        cut blocks and then at most one refused block, after which
        csv.reader reads the rest, and ``cut`` holds for it. The quote of
        ``long`` lies in the last block cut is offered, which it refuses."""
        monkeypatch.setattr(cohort_mod, "_ROW_BLOCK", row_block)
        cuts = {}
        screen_lines = cohort_mod._screen_lines

        def record(lines, pattern):
            rows = screen_lines(lines, pattern)
            cuts.setdefault(pattern.groups, []).append(rows is not None)
            return rows

        monkeypatch.setattr(cohort_mod, "_screen_lines", record)
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        result = self.check(path, tmp_path, schema=None)
        assert result.dropped and len(result.cohort)
        assert len(cuts) == 2
        for mode in cuts.values():
            assert mode and cut(mode)
            assert all(mode[:-1]), mode


def grammar_strings() -> list[str]:
    """Strings near the float grammar: every short string over signs,
    ASCII, Arabic-Indic and fullwidth digits, underscore, padding, . and
    e; structured numbers with padding and each exponent form; inf and
    nan spellings; 17-20 digit mantissas, overflow and subnormals."""
    alphabet = ["-", "+", "0", "7", "\u0663", "\uff17", "_", " ", ".", "e", "E"]
    strings = {"".join(p) for k in range(1, 5) for p in product(alphabet, repeat=k)}
    pads = ["", " ", "\t", "\x0c", "\x1c", "\xa0", "\u2028", "\u3000"]
    numbers = [
        f"{sign}{mantissa}{exponent}"
        for sign in ("", "-", "+")
        for mantissa in ("1", "12", "1.5", "1.", ".5", "0.0", "1_0", "1__0", "_1", "1_",
                         "1._5", "\u0663.5", "\uff11\uff12", "1\u0663")
        for exponent in ("", "e5", "e+5", "e-5", "E-5", "e", "e+", "e-+5", "e5.0", "e_5",
                         "e1_0", "e\u0663", "ee5")
    ]
    strings.update(f"{a}{x}{b}" for x in numbers for a in pads for b in pads[:3])
    strings.update(
        f"{sign}{word}" for sign in ("", "-", "+", " -")
        for word in ("inf", "INF", "Inf", "infinity", "Infinity", "iNfInItY", "infinit",
                     "nan", "NaN", "NAN", "nan(1)", "in f", "na")
    )
    strings.update([
        "12345678901234567", "123456789012345678", "1234567890123456789",
        "12345678901234567890", "-1.2345678901234567890", "0.12345678901234567891e-3",
        "1e500", "-1e500", "1e-500", "4.9e-324", "5e-324", "2.4703282292062327e-324",
        "2.2250738585072014e-308", "1.7976931348623157e+308", "1.8e308", "",
    ])
    return sorted(strings)


def float_ok(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestStrictGrammar:
    """The strict e* grammar of the check-only load is a subset of float()."""

    def test_accepted_strings_parse(self):
        strings = grammar_strings()
        match = _strict_row(1).fullmatch
        accepted = [s for s in strings if match(s)]
        assert accepted and len(accepted) < len(strings)
        assert [s for s in accepted if not float_ok(s)] == []
        assert all(s.isascii() for s in accepted)
        two = _strict_row(2).fullmatch
        assert two("1.5,-2e-07") and not two("1.5") and not two("1.5,2,3")

    def test_same_language_as_the_quantifier_spelling(self):
        """The cell pattern accepts exactly the strings that its spelling
        with ? quantifiers accepts: the grammar strings and a seeded
        corpus over the pattern's own alphabet as single cells, and rows
        of three cells, each drawn from the cells that spelling accepts
        with probability 0.8 and from all of them otherwise."""
        oracle = r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"
        rng = np.random.default_rng(29)
        alphabet = np.array(list("0123456789.-+e,"))
        cells = grammar_strings() + [
            "".join(rng.choice(alphabet, size=k)) for k in rng.integers(1, 14, 20_000)
        ]
        good = [s for s in cells if re.fullmatch(oracle, s, re.ASCII)]

        def cell():
            pool = good if rng.random() < 0.8 else cells
            return pool[rng.integers(len(pool))]

        rows = [",".join(cell() for _ in range(3)) for _ in range(20_000)]
        for dim, corpus in ((1, cells), (3, rows)):
            ours = _strict_row(dim).fullmatch
            theirs = re.compile(rf"{oracle}(?:,{oracle}){{{dim - 1}}}", re.ASCII).fullmatch
            assert 100 < sum(1 for s in corpus if theirs(s)) < len(corpus) - 100
            assert [s for s in corpus if bool(ours(s)) != bool(theirs(s))] == []

    @pytest.mark.parametrize("dim", [1, 2])
    def test_file_drops_same_in_both_modes(self, tmp_path, dim):
        """Each string as the first e* cell of its own row, alone or
        before strict cells, drops the row in both loading modes exactly
        when float() rejects it. With one column, an empty or "-" cell
        is the whole e* text of its line."""
        strings = grammar_strings()
        rows = [
            f"s{i},10,1,60,,,,,,,,,{text}" + ",0.5" * (dim - 1) for i, text in enumerate(strings)
        ]
        path = tmp_path / "c.csv"
        write_csv(path, rows, header=HEADER + "".join(f",e{k}" for k in range(dim)))
        converted = load_cohort(path)
        checked = load_cohort(path, with_embedding=False)
        expected = tuple(
            (i, "unparseable embedding value")
            for i, text in enumerate(strings, 1) if not float_ok(text)
        )
        assert converted.dropped == checked.dropped == expected
        assert checked.cohort.embedding is None
        assert checked.cohort == dataclasses.replace(converted.cohort, embedding=None)


def strict_cells() -> list[str]:
    """Cells of the strict e* form at the edges of float(): -0 and
    leading zeros, exponent overflow to +-inf and underflow to +-0,
    subnormals and halfway cases, 17-30 digit significands, and a seeded
    sample of up to 30 digits with exponents up to 400."""
    cells = [
        "-0", "-0.0", "0", "0e+0", "-0e-5", "007", "-000.500", "00012.3400e+003",
        "1e+308", "1.7976931348623157e+308", "1.7976931348623158e+308", "1.8e+308",
        "1e+500", "-1e+500", "9e+99999", "1e-500", "-1e-500", "4.9e-324", "5e-324",
        "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "9007199254740993", "9007199254740992.5",
        "0.1000000000000000055511151231257827", "123456789012345678901234567890",
        "-1.23456789012345678901234567890e-7",
    ]
    rng = np.random.default_rng(31)
    for _ in range(4000):
        digits = "".join(rng.choice(list("0123456789"), rng.integers(1, 31)))
        point = int(rng.integers(0, len(digits) + 1))
        mantissa = digits if point == len(digits) else f"{digits[:point] or '0'}.{digits[point:]}"
        exponent = "" if rng.random() < 0.3 else f"e{rng.choice(['-', '+'])}{rng.integers(0, 400)}"
        cells.append(("-" if rng.random() < 0.5 else "") + mantissa + exponent)
    return cells


# Strict rows (a, g, h), rows of numbers outside the strict form (b, c),
# unparseable e* cells (d, e) and a row dropped before its e* cells (f).
TWIN_ROWS = [
    "a,10,1,60,,,,,,,,,0.5,-1.25e-07,3",
    "b,20,0,61,,,,,,,,,1E5, 2,inf",
    "c,30,1,62,,,,,,,,,1_0,nan,+4",
    "d,40,1,63,,,,,,,,,abc,1,2",
    "e,50,0,64,,,,,,,,,,1,2",
    "f,oops,1,65,,,,,,,,,1,2,3",
    "g,60,1,66,,,,,,,,,12345678901234567890.5,-0,1e+500",
    "h,70,1,67,,,,,,,,,1.5,2.5,3.5",
]


class TestOneReader:
    """Cut blocks and csv.reader rows share one e* reader."""

    @pytest.mark.parametrize("row_block", [3, cohort_mod._ROW_BLOCK])
    @pytest.mark.parametrize("quoted", [False, True], ids=["cut", "csv"])
    def test_strict_cells_convert_as_float(self, tmp_path, monkeypatch, quoted, row_block):
        """Every strict cell reads bit for bit as float() reads it, in
        cut blocks and, after a quoted first id, through csv.reader."""
        monkeypatch.setattr(cohort_mod, "_ROW_BLOCK", row_block)
        cells = strict_cells()
        cells += ["0.5"] * (-len(cells) % 4)
        assert all(_strict_row(1).fullmatch(cell) for cell in cells)
        rows = [
            f"s{i},10,1,60,,,,,,,,,{','.join(cells[k : k + 4])}"
            for i, k in enumerate(range(0, len(cells), 4))
        ]
        if quoted:
            rows[0] = '"s0"' + rows[0][2:]
        path = tmp_path / "c.csv"
        write_csv(path, rows, header=HEADER + ",e0,e1,e2,e3")
        result = load_cohort(path)
        expected = np.array([float(cell) for cell in cells]).reshape(-1, 4)
        assert result.dropped == ()
        assert result.cohort.ids[0] == "s0"
        assert result.cohort.embedding.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row_block", [2, cohort_mod._ROW_BLOCK])
    @pytest.mark.parametrize("with_embedding", [True, False])
    def test_refused_first_block_reads_as_its_twin(
        self, tmp_path, monkeypatch, with_embedding, row_block
    ):
        """A quoted first id makes the cut refuse the first block, so
        csv.reader reads the whole file; it loads as its quote-free twin,
        whose every block is cut, does: the same cohort and dropped rows."""
        monkeypatch.setattr(cohort_mod, "_ROW_BLOCK", row_block)
        cuts = []
        screen_lines = cohort_mod._screen_lines

        def record(lines, pattern):
            rows = screen_lines(lines, pattern)
            cuts.append(rows is not None)
            return rows

        monkeypatch.setattr(cohort_mod, "_screen_lines", record)
        header = HEADER + ",e0,e1,e2"
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_csv(plain, TWIN_ROWS, header=header)
        write_csv(quoted, ['"a"' + TWIN_ROWS[0][1:], *TWIN_ROWS[1:]], header=header)
        cut = load_cohort(plain, with_embedding=with_embedding)
        assert cuts and all(cuts)
        cuts.clear()
        read = load_cohort(quoted, with_embedding=with_embedding)
        assert cuts == [False]
        assert read.cohort == cut.cohort
        assert read.dropped == cut.dropped == (
            (4, "unparseable embedding value"), (5, "unparseable embedding value"),
            (6, "unparseable time"),
        )
        assert list(cut.cohort.ids) == ["a", "b", "c", "g", "h"]
        if with_embedding:
            assert cut.cohort.embedding[3].tolist() == [12345678901234567890.5, -0.0, np.inf]
        else:
            assert cut.cohort.embedding is None


class TestByteOrderMark:
    @pytest.mark.parametrize("with_embedding", [True, False])
    @pytest.mark.parametrize(
        "header,rows",
        [("id,time,event,chrono_age,e0,e1", ["p1,10,1,60,0.5,1.5", "p2,20,0,61,2.5,3.5"]),
         ("time,id,event,chrono_age,e0,e1", ["10,p1,1,60,0.5,1.5", "20,p2,0,61,2.5,3.5"])],
        ids=["id_first", "time_first"],
    )
    def test_bom_is_not_part_of_the_first_name(self, tmp_path, header, rows, with_embedding):
        """The UTF-8 byte order mark that spreadsheet "CSV UTF-8" exports
        write before the header does not rename its first column."""
        path = tmp_path / "c.csv"
        path.write_bytes(("\ufeff" + header + "\n" + "\n".join(rows) + "\n").encode("utf-8"))
        cohort = load_cohort(path, with_embedding=with_embedding).cohort
        assert cohort.ids.tolist() == ["p1", "p2"]
        assert cohort.time.tolist() == [10.0, 20.0]


class TestMissingValues:
    def test_literal_nan_is_missing(self, tmp_path):
        """A literal nan in an optional column reads as an empty cell
        does: missing, written back empty, not an error."""
        p = tmp_path / "c.csv"
        write_csv(p, ["a,120,1,61.5,,,,,,,nan,NaN", "b,130,0,62.0,,,,,,,,"])
        cohort = load_cohort(p).cohort
        assert np.isnan(cohort.predicted_age[0]) and np.isnan(cohort.risk_raw[0])
        assert cohort == Cohort(ids=["a", "b"], time=[120.0, 130.0], event=[True, False],
                                chrono_age=[61.5, 62.0])
        out = tmp_path / "out.csv"
        save_cohort(cohort, out)
        assert out.read_text().splitlines()[1] == "a,120.0,1,61.5" + ",unknown" * 6 + ",,"
        scaled = Cohort(ids=["a"], time=[1.0], event=[True], chrono_age=[60.0],
                        risk_scaled=[float("nan")])
        assert np.isnan(scaled.risk_scaled).tolist() == [True]


N_MEMORY, DIM_MEMORY = 20_000, 32


@pytest.fixture(scope="module")
def memory_cohort(tmp_path_factory):
    """A saved N_MEMORY x DIM_MEMORY cohort."""
    spec = SimSpec(n=N_MEMORY, censor_model=("uniform", 1500.0), embedding_dim=DIM_MEMORY,
                   embedding_weights=(0.0,) * DIM_MEMORY, seed=11)
    path = tmp_path_factory.mktemp("memory") / "c.csv"
    result = simulate(spec)
    save_cohort(result.cohort, path, result.embedding_blocks())
    return path


class TestMemory:
    def test_load_peak_bounded_by_matrix(self, memory_cohort):
        """Loading holds the embedding matrix once plus one block of rows,
        not every cell of the file as a str (about 14 matrices)."""
        n, dim, path = N_MEMORY, DIM_MEMORY, memory_cohort
        tracemalloc.start()
        try:
            cohort = load_cohort(path).cohort
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cohort.embedding.shape == (n, dim)
        assert peak < 2 * n * dim * 8 + 8 * 2**20

    def test_check_only_peak_below_one_matrix(self, memory_cohort):
        """A load without the embedding holds no matrix: its peak stays
        below the size of the one it does not build plus 4 MiB."""
        n, dim, path = N_MEMORY, DIM_MEMORY, memory_cohort
        tracemalloc.start()
        try:
            result = load_cohort(path, with_embedding=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.cohort) == n and result.cohort.embedding is None
        assert peak < n * dim * 8 + 4 * 2**20

    def test_save_peak_flat_in_n(self, tmp_path):
        """Saving holds the cell strings of one block beyond the cohort,
        not a string copy of every column: the allocation peak for 8k
        rows stays within 1.25 times that for 2k rows (a whole-column
        writer's grows about 3.6 times), whether the e* cells come from
        the cohort's matrix or from blocks redrawn as they are written."""
        for source in ("matrix", "redrawn"):
            peaks = {}
            for n in (2_000, 8_000):
                spec = SimSpec(n=n, censor_model=("uniform", 1500.0), embedding_dim=16,
                               embedding_weights=(0.0,) * 16, seed=5)
                result = simulate(spec)
                cohort, blocks = result.cohort, result.embedding_blocks()
                if source == "matrix":
                    matrix = np.concatenate(list(blocks))
                    matrix.flags.writeable = False
                    cohort, blocks = dataclasses.replace(cohort, embedding=matrix), None
                path = tmp_path / f"{source}{n}.csv"
                tracemalloc.start()
                try:
                    save_cohort(cohort, path, blocks)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert load_cohort(path).cohort.embedding.shape == (n, 16)
            assert peaks[8_000] < 1.25 * peaks[2_000], source

    def test_simulate_and_save_peak_below_matrix(self, tmp_path):
        """simulate draws the embedding matrix once, for eta, and drops
        it; the write redraws it block by block. So generating and saving
        a cohort peaks below one matrix plus 3 MiB, not at the matrix
        plus every other column (at 20k x 32 the peak measured 6.0 MiB
        against a 4.9 MiB matrix, and 13.0 MiB when the cohort kept the
        matrix through the write)."""
        n, dim = N_MEMORY, DIM_MEMORY
        spec = SimSpec(n=n, censor_model=("uniform", 1500.0), embedding_dim=dim,
                       embedding_weights=(0.0,) * dim, seed=11)
        tracemalloc.start()
        try:
            result = simulate(spec)
            save_cohort(result.cohort, tmp_path / "c.csv", result.embedding_blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8 + 3 * 2**20

    def test_read_only_column_shared(self):
        time = np.array([1.0, 2.0])
        event = np.array([True, False])
        embedding = np.ones((2, 3))
        for column in (time, event, embedding):
            column.flags.writeable = False
        cohort = Cohort(ids=["a", "b"], time=time, event=event,
                        chrono_age=[60.0, 61.0], embedding=embedding)
        assert np.shares_memory(cohort.time, time)
        assert np.shares_memory(cohort.event, event)
        assert np.shares_memory(cohort.embedding, embedding)

    def test_writeable_column_copied(self):
        time = np.array([1.0, 2.0])
        embedding = np.ones((2, 3))
        view = embedding[:]
        view.flags.writeable = False  # read-only, but its base is not
        cohort = Cohort(ids=["a", "b"], time=time, event=[True, False],
                        chrono_age=[60.0, 61.0], embedding=view)
        time[0] = 99.0
        embedding[0, 0] = 99.0
        assert cohort.time.tolist() == [1.0, 2.0]
        assert cohort.embedding[0, 0] == 1.0
        assert not cohort.time.flags.writeable and not cohort.embedding.flags.writeable
