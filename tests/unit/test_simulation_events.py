"""Unit tests for the trace event records."""

from __future__ import annotations

import pytest

from repro.simulation import Event, EventKind


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1.0, kind=EventKind.FAILURE)

    def test_with_payload(self):
        event = Event(time=1.0, kind=EventKind.FAILURE, payload={"a": 1})
        updated = event.with_payload(b=2)
        assert updated.payload == {"a": 1, "b": 2}
        assert event.payload == {"a": 1}

    def test_str_contains_kind(self):
        assert "failure" in str(Event(time=1.0, kind=EventKind.FAILURE))
