import logging
from datetime import date

import pytest

from farecast.core import Quote, SeriesKey
from farecast.ingest import (
    CSV_HEADER,
    DuplicateQuote,
    ParseError,
    SplitConfig,
    load_quotes,
    split,
)

from conftest import series_of


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
    assert s.prices == (50.0, 40.0, 45.0)  # sorted by query date


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
    for price in ("0.000", "inf", "1e400"):
        write_csv(f, [("R1", "2016-01-13", "2015-12-01", price)])
        with pytest.raises(ParseError):
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
    assert cfg.to_dict()["train_end"] == "2016-01-15"


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

    f.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
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
