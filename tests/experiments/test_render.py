"""Tests for repro.experiments.render."""

from repro.experiments.render import dot_timeline, fmt_pct, format_table, sparkline


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        widths = {len(line) for line in lines[2:]}
        assert all("  " in line for line in lines[2:])

    def test_non_string_cells(self):
        table = format_table(["n"], [[42], [3.5]])
        assert "42" in table and "3.5" in table


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁" and line[-1] == "█"

    def test_length(self):
        assert len(sparkline(range(10))) == 10


class TestDotTimeline:
    def test_dots(self):
        assert dot_timeline([True, False, True]) == "●·●"


class TestNumbers:
    def test_pct(self):
        assert fmt_pct(12.345) == "12.3%"
