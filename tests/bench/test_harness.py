"""Tests for benchmark harness helpers."""

import pytest

from repro.bench.harness import format_table, format_us, trimean


class TestTrimean:
    def test_symmetric_data(self):
        assert trimean([1, 2, 3, 4, 5]) == pytest.approx(3.0)

    def test_weights_median(self):
        # trimean = (Q1 + 2*median + Q3)/4
        values = [0, 0, 0, 100]
        assert trimean(values) == pytest.approx((0 + 2 * 0 + 25) / 4)

    def test_single_value(self):
        assert trimean([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimean([])


class TestFormatting:
    def test_format_us(self):
        assert format_us(1.5e-3) == "1,500.0"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

