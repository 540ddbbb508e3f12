"""Unit tests for :mod:`repro.utils.units`."""

from __future__ import annotations

import math

from repro.utils import units


class TestConstants:
    def test_minute_is_sixty_seconds(self):
        assert units.MINUTE == 60.0

    def test_hour_day_week_chain(self):
        assert units.HOUR == 60 * units.MINUTE
        assert units.DAY == 24 * units.HOUR
        assert units.WEEK == 7 * units.DAY

    def test_year_is_365_days(self):
        assert units.YEAR == 365 * units.DAY

    def test_data_units_are_decimal(self):
        assert units.GB == 1e9
        assert units.TB == 1000 * units.GB
        assert units.PB == 1000 * units.TB


class TestConversions:
    def test_to_seconds(self):
        assert units.to_seconds(10, units.MINUTE) == 600.0


class TestFormatDuration:
    def test_seconds(self):
        assert units.format_duration(12.0) == "12.00 s"

    def test_minutes(self):
        assert units.format_duration(90.0) == "1.50 min"

    def test_week(self):
        assert units.format_duration(units.WEEK) == "1.00 w"

    def test_negative(self):
        assert units.format_duration(-120.0).startswith("-2.00")

    def test_sub_second(self):
        assert units.format_duration(0.25) == "0.25 s"

    def test_nan_and_inf_pass_through(self):
        assert units.format_duration(math.nan) == "nan"
        assert units.format_duration(math.inf) == "inf"

    def test_precision(self):
        assert units.format_duration(90.0, precision=0) == "2 min"
