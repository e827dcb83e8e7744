"""Tables, ASCII plots and export round-trips."""

import pytest

from repro.analysis import (
    ascii_plot,
    export_json,
    export_series_csv,
    format_kv_block,
    format_series_table,
    format_table,
    read_series_csv,
)
from repro.errors import ValidationError


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table([["model", "err"], ["a", 1.234], ["long_name", 10.5]])
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert "1.23" in text
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            format_table([])

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            format_table([["a", "b"], ["c"]])

    def test_no_header(self):
        text = format_table([["1", "2"]], header=False)
        assert "-" not in text

    def test_int_not_float_formatted(self):
        text = format_table([["n"], [100]], header=True)
        assert "100" in text and "100.00" not in text


class TestSeriesTable:
    def test_layout(self):
        text = format_series_table("x", [1, 2], {"a": [0.5, 0.6], "b": [1.0, 2.0]})
        assert text.splitlines()[0].split() == ["x", "a", "b"]

    def test_length_check(self):
        with pytest.raises(ValidationError):
            format_series_table("x", [1, 2], {"a": [0.5]})

    def test_needs_series(self):
        with pytest.raises(ValidationError):
            format_series_table("x", [1], {})


class TestKVBlock:
    def test_contains_items(self):
        text = format_kv_block("Setup", {"radius": "5 um", "k1": 1.3})
        assert "Setup" in text and "radius" in text and "1.3" in text

    def test_empty_title_rejected(self):
        with pytest.raises(ValidationError):
            format_kv_block("", {})


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        text = ascii_plot([0, 1, 2], {"fem": [1.0, 2.0, 3.0], "a": [1.5, 2.5, 3.5]})
        assert "o" in text and "x" in text
        assert "o=fem" in text and "x=a" in text

    def test_flat_series_ok(self):
        text = ascii_plot([0, 1], {"flat": [1.0, 1.0]})
        assert "flat" in text

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ascii_plot([0, 1], {"a": [1.0]})

    def test_too_many_series(self):
        series = {f"s{i}": [0.0, 1.0] for i in range(9)}
        with pytest.raises(ValidationError):
            ascii_plot([0, 1], series)

    def test_canvas_size_validated(self):
        with pytest.raises(ValidationError):
            ascii_plot([0, 1], {"a": [0.0, 1.0]}, width=5, height=5)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        export_series_csv(path, "r", [1.0, 2.0], {"a": [3.0, 4.0], "b": [5.0, 6.0]})
        label, xs, series = read_series_csv(path)
        assert label == "r"
        assert xs == [1.0, 2.0]
        assert series == {"a": [3.0, 4.0], "b": [5.0, 6.0]}

    def test_csv_length_check(self, tmp_path):
        with pytest.raises(ValidationError):
            export_series_csv(tmp_path / "x.csv", "r", [1.0], {"a": [1.0, 2.0]})

    def test_json_export(self, tmp_path):
        path = export_json(tmp_path / "out.json", {"b": 2, "a": 1})
        content = path.read_text()
        assert content.index('"a"') < content.index('"b"')

    def test_json_requires_dict(self, tmp_path):
        with pytest.raises(ValidationError):
            export_json(tmp_path / "out.json", [1, 2])

    def test_read_rejects_non_series(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("just_one_column\n1\n")
        with pytest.raises(ValidationError):
            read_series_csv(bad)

