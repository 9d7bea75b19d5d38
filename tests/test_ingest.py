import csv
import io
import logging
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farecast.core import (
    FarecastError,
    NonPositivePrice,
    PriceSeries,
    QueryAfterDeparture,
    SeriesKey,
)
from farecast.ingest import (
    CSV_HEADER,
    DuplicateQuote,
    ParseError,
    SplitConfig,
    load_quotes,
    split,
)
from farecast.util import natural_key, to_jsonable

from conftest import series_of


# -- the row-at-a-time parser, kept as the oracle of load_quotes ---------------


def reference_validate(route_id, departure, query, price):
    if not (price > 0 and math.isfinite(price)):
        raise NonPositivePrice(f"price must be finite and > 0, got {price!r} for {route_id}")
    if query > departure:
        raise QueryAfterDeparture(f"query {query} is after departure {departure} for {route_id}")


def reference_load_quotes(path) -> list[PriceSeries]:
    """Parse, validate and group one record at a time, in file order; a bad
    record raises as soon as it is read, naming its first physical line."""
    grouped: dict[SeriesKey, dict[date, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file (header required)")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(1, f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
            route_id = row[0]
            try:
                departure = date.fromisoformat(row[1])
                query = date.fromisoformat(row[2])
                price = float(row[3])
                reference_validate(route_id, departure, query, price)
            except (ValueError, FarecastError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            key = SeriesKey(route_id, departure)
            by_day = grouped.setdefault(key, {})
            if query in by_day:
                raise DuplicateQuote(key, query)
            by_day[query] = price
    ordered = sorted(grouped.items(),
                     key=lambda item: (natural_key(item[0].route_id), item[0].departure_date))
    return [PriceSeries(key, sorted(by_day), [by_day[d] for d in sorted(by_day)])
            for key, by_day in ordered]


def write_csv(path, rows, header=CSV_HEADER):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_groups_rows_into_one_series(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(
        f,
        [
            ("R1", "2016-01-13", "2015-12-01", "50.000"),
            ("R1", "2016-01-13", "2015-12-03", "45.000"),
            ("R1", "2016-01-13", "2015-12-02", "40.000"),
        ],
    )
    series = load_quotes(f)
    assert len(series) == 1
    s = series[0]
    assert s.key == SeriesKey("R1", date(2016, 1, 13))
    assert tuple(s.prices) == (50.0, 40.0, 45.0)  # sorted by query date


def test_load_rejects_duplicate_triple(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(
        f,
        [
            ("R1", "2016-01-13", "2015-12-01", "50.000"),
            ("R1", "2016-01-13", "2015-12-01", "40.000"),
        ],
    )
    with pytest.raises(DuplicateQuote):
        load_quotes(f)


def test_load_reports_line_numbers(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(
        f,
        [
            ("R1", "2016-01-13", "2015-12-01", "50.000"),
            ("R1", "2016-01-13", "not-a-date", "40.000"),
        ],
    )
    with pytest.raises(ParseError) as exc:
        load_quotes(f)
    assert exc.value.line_no == 3  # header is line 1


def test_load_rejects_bad_header(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(f, [("R1", "2016-01-13", "2015-12-01", "50.000")], header=("a", "b", "c", "d"))
    with pytest.raises(ParseError):
        load_quotes(f)


def test_load_rejects_wrong_column_count(tmp_path):
    f = tmp_path / "q.csv"
    f.write_text(",".join(CSV_HEADER) + "\nR1,2016-01-13,2015-12-01\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_quotes(f)


def test_load_rejects_nonpositive_price(tmp_path):
    f = tmp_path / "q.csv"
    for price in ("0.000", "-1", "inf", "1e400"):
        write_csv(f, [("R1", "2016-01-13", "2015-12-01", price)])
        with pytest.raises(ParseError) as exc:
            load_quotes(f)
        assert isinstance(exc.value.__cause__, NonPositivePrice)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    f = tmp_path / "q.csv"
    f.write_bytes(",".join(CSV_HEADER).encode() + b"\nR1,2016-01-13,2015-12-01,5\xff0\n")
    with pytest.raises(FarecastError, match="UTF-8"):
        load_quotes(f)


def test_load_rejects_a_field_over_the_csv_limit(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(f, [("R1", "2016-01-13", "2015-12-01", "5" * (csv.field_size_limit() + 1))])
    with pytest.raises(FarecastError, match="field limit"):
        load_quotes(f)


def test_load_is_deterministic(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(
        f,
        [
            ("R2", "2016-01-20", "2015-12-01", "30.000"),
            ("R1", "2016-01-13", "2015-12-01", "50.000"),
            ("R10", "2016-01-13", "2015-12-01", "20.000"),
        ],
    )
    a = load_quotes(f)
    b = load_quotes(f)
    assert [s.key for s in a] == [s.key for s in b]
    # natural route order: R1 before R2 before R10
    assert [s.key.route_id for s in a] == ["R1", "R2", "R10"]


def paper_split():
    return SplitConfig.default()


def test_default_split_matches_documented_windows():
    cfg = paper_split()
    assert cfg.train_start == date(2015, 11, 9)
    assert cfg.train_end == date(2016, 1, 15)
    assert cfg.test_start == date(2016, 1, 16)
    assert to_jsonable(cfg)["train_end"] == "2016-01-15"


def test_split_boundary_departures():
    cfg = paper_split()
    train_edge = series_of([10, 11], departure=date(2016, 1, 15))
    test_edge = series_of([10, 11], departure=date(2016, 1, 16))
    train, test = split([train_edge, test_edge], cfg)
    assert [s.key.departure_date for s in train] == [date(2016, 1, 15)]
    assert [s.key.departure_date for s in test] == [date(2016, 1, 16)]


def test_split_drops_out_of_window_with_warning(caplog):
    cfg = paper_split()
    stray = series_of([10, 11], departure=date(2016, 3, 1))
    with caplog.at_level(logging.WARNING):
        train, test = split([stray], cfg)
    assert train == [] and test == []
    assert any("dropped" in r.message for r in caplog.records)


def test_split_partitions_series():
    cfg = paper_split()
    everything = [
        series_of([10, 11], departure=date(2015, 12, 20)),
        series_of([10, 11], departure=date(2016, 1, 16)),
        series_of([10, 11], departure=date(2016, 2, 1)),
    ]
    train, test = split(everything, cfg)
    train_keys = {s.key for s in train}
    test_keys = {s.key for s in test}
    assert not (train_keys & test_keys)
    assert len(train) + len(test) <= len(everything)


def test_split_config_validation():
    with pytest.raises(Exception):
        SplitConfig(
            train_start=date(2016, 1, 1),
            train_end=date(2016, 2, 1),
            test_start=date(2016, 1, 15),  # overlaps train
            test_end=date(2016, 3, 1),
        )


def test_split_config_json_round_trip(tmp_path):
    cfg = paper_split()
    f = tmp_path / "split.json"
    import json

    f.write_text(json.dumps(to_jsonable(cfg)), encoding="utf-8")
    assert SplitConfig.from_json(f) == cfg


def test_row_counts_conserved(tmp_path):
    rows = []
    for day in range(1, 6):
        rows.append(("R1", "2016-01-13", f"2015-12-0{day}", "50.000"))
    for day in range(1, 4):
        rows.append(("R2", "2016-01-14", f"2015-12-0{day}", "60.000"))
    f = tmp_path / "q.csv"
    write_csv(f, rows)
    series = load_quotes(f)
    assert sum(len(s) for s in series) == len(rows)


# -- the order of the rules and physical line numbers ----------------------------


@pytest.mark.parametrize("row, message", [
    (("R1", "2016-13-01", "x", "abc"), "month must be in 1..12"),
    (("R1", "2016-01-13", "x", "abc"), "Invalid isoformat string: 'x'"),
    (("R1", "2016-01-13", "2016-02-01", "abc"), "could not convert string to float: 'abc'"),
    (("R1", "2016-01-13", "2016-02-01", "0"), "price must be finite and > 0, got 0.0 for R1"),
])
def test_load_checks_a_record_in_order(tmp_path, row, message):
    f = tmp_path / "q.csv"
    write_csv(f, [row, ("R1", "2016-01-13", "2015-12-01")])  # a later 3-field record
    with pytest.raises(ParseError) as exc:
        load_quotes(f)
    assert str(exc.value) == f"line 2: {message}"


def test_load_rejects_a_duplicate_written_two_ways(tmp_path):
    f = tmp_path / "q.csv"
    write_csv(f, [("R1", "2016-01-13", "2015-12-01", "50.000"),
                  ("R1", "20160113", "20151201", "40.000")])
    with pytest.raises(DuplicateQuote) as exc:
        load_quotes(f)
    assert exc.value.key == SeriesKey("R1", date(2016, 1, 13))
    assert exc.value.query_date == date(2015, 12, 1)


def test_load_reports_the_first_repeat_in_file_order(tmp_path):
    # Triple A repeats on line 5, triple B on line 4: B is reported.
    a = ("R1", "2016-01-13", "2015-12-01", "50.000")
    b = ("R2", "2016-01-13", "2015-12-02", "60.000")
    f = tmp_path / "q.csv"
    write_csv(f, [a, b, b, a])
    with pytest.raises(DuplicateQuote) as exc:
        load_quotes(f)
    assert exc.value.key == SeriesKey("R2", date(2016, 1, 13))
    assert exc.value.query_date == date(2015, 12, 2)


def test_parse_errors_name_physical_lines(tmp_path):
    # A quoted route id spans lines 2-3, so the bad price sits on line 4.
    f = tmp_path / "q.csv"
    f.write_text(",".join(CSV_HEADER) + '\n"R\n1",2016-01-13,2015-12-01,50\n'
                 "R1,2016-01-13,2015-12-01,-1\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_quotes(f)
    assert exc.value.line_no == 4
    assert str(exc.value).startswith("line 4: price must be finite and > 0, got -1.0")


# -- load_quotes against the row-at-a-time oracle -------------------------------

ROUTES = ["R1", "R2", "R10", "R01", "R\n1"]  # R01 and R1 sort alike; one spans lines
BAD_DATES = ["2015-13-01", "20151109", "2016-1-5", "x"]
PRICES = ["nan", "inf", "1e400", "0", "-1", "1_000", "12.5", "abc", "", "1.2.3"]


def iso_or_basic(day: date, basic: bool) -> str:
    return day.strftime("%Y%m%d") if basic else day.isoformat()


@st.composite
def quote_files(draw):
    """CSV text of a shuffled valid corpus, then a few faults: bad or
    alternatively written dates, odd prices, wrong field counts, blank lines,
    queries after departure and repeated triples."""
    triples = draw(st.lists(st.tuples(st.sampled_from(ROUTES), st.integers(0, 4),
                                      st.integers(0, 5)), unique=True, max_size=25))
    records = []
    for route, dep_offset, days_out in triples:
        departure = date(2016, 1, 10) + timedelta(days=dep_offset)
        records.append([route, iso_or_basic(departure, draw(st.booleans())),
                        iso_or_basic(departure - timedelta(days=days_out), draw(st.booleans())),
                        f"{draw(st.integers(1, 99_999)) / 1000:.3f}"])
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(records)))
        faults = draw(st.sets(st.sampled_from(["blank", "repeat", "date", "price", "late",
                                               "fields"]), min_size=1, max_size=3))
        if "blank" in faults:
            records.insert(at, [])
            continue
        if at == len(records) or len(records[at]) != 4:
            continue
        record = records[at]
        if "repeat" in faults:  # the same triple later on, dates spelled either way
            copy = [text if text in BAD_DATES else
                    iso_or_basic(date.fromisoformat(text), draw(st.booleans()))
                    for text in record[1:3]]
            copy = [record[0], *copy, record[3]]
            records.insert(draw(st.integers(at + 1, len(records))), copy)
        if "date" in faults:
            record[draw(st.sampled_from([1, 2]))] = draw(st.sampled_from(BAD_DATES))
        if "price" in faults:
            record[3] = draw(st.sampled_from(PRICES))
        if "late" in faults:
            record[2] = "2016-02-01"
        if "fields" in faults:
            records[at] = record[:3] if draw(st.booleans()) else record + ["x"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    out.write(",".join(CSV_HEADER) + "\n")
    for record in records:
        if record:
            writer.writerow(record)
        else:
            out.write("\n")
    return out.getvalue()


def outcome(parse, path):
    """The series as plain values (prices by their bits), or the error."""
    try:
        series = parse(path)
    except (ParseError, DuplicateQuote) as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "key", None),
                getattr(exc, "query_date", None), type(exc.__cause__))
    return [(s.key, s.query_dates.tolist(), s.prices.tobytes()) for s in series]


@settings(max_examples=400, deadline=None)
@given(text=quote_files())
def test_load_quotes_matches_the_row_oracle(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("oracle") / "q.csv"
    f.write_text(text, encoding="utf-8")
    assert outcome(load_quotes, f) == outcome(reference_load_quotes, f)
