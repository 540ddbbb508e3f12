"""Unit tests for the structured stderr log helper."""

from __future__ import annotations

import io

import pytest

from repro.obs import logging as obs_logging
from repro.obs.metrics import global_registry, reset_global_registry


@pytest.fixture(autouse=True)
def clean_state():
    obs_logging.reset_log_notes()
    reset_global_registry()
    yield
    obs_logging.reset_log_notes()
    reset_global_registry()


class TestFormatFields:
    def test_plain_values_unquoted(self):
        line = obs_logging.format_fields(backend="auto", count=3, ratio=0.5)
        assert line == "backend=auto count=3 ratio=0.5"

    def test_strings_with_spaces_json_quoted(self):
        assert obs_logging.format_fields(detail="two words") == 'detail="two words"'

    def test_booleans_lowercase(self):
        assert obs_logging.format_fields(flag=True, other=False) == (
            "flag=true other=false"
        )


class TestLog:
    def test_emits_structured_line(self):
        stream = io.StringIO()
        wrote = obs_logging.log(
            "note", "backend-fallback", stream=stream, backend="auto", detail="x y"
        )
        assert wrote is True
        assert stream.getvalue() == (
            'note: event=backend-fallback backend=auto detail="x y"\n'
        )

    def test_dedupe_suppresses_second_emission(self):
        stream = io.StringIO()
        assert obs_logging.log("note", "e", dedupe="k", stream=stream)
        assert not obs_logging.log("note", "e", dedupe="k", stream=stream)
        assert stream.getvalue().count("event=e") == 1

    def test_reset_log_notes_allows_reemission(self):
        stream = io.StringIO()
        obs_logging.log("note", "e", dedupe="k", stream=stream)
        obs_logging.reset_log_notes()
        assert obs_logging.log("note", "e", dedupe="k", stream=stream)
        assert stream.getvalue().count("event=e") == 2

    def test_every_call_counts_even_when_suppressed(self):
        stream = io.StringIO()
        obs_logging.log("note", "evt", dedupe="k", stream=stream)
        obs_logging.log("note", "evt", dedupe="k", stream=stream)
        counter = global_registry().get("repro_log_events_total")
        assert counter.value(level="note", event="evt") == 2.0

    def test_default_stream_is_stderr(self, capsys):
        obs_logging.log("warn", "something", reason="because")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warn: event=something reason=because\n"


class TestBackendFallbackRouting:
    """The vectorized engine's fallback notes flow through obs.log."""

    def test_note_format_and_dedupe(self, capsys):
        from repro.obs import reset_log_notes
        from repro.simulation.vectorized import note_backend_fallback

        reset_log_notes()
        note_backend_fallback("sentinel detail")
        note_backend_fallback("sentinel detail")
        err = capsys.readouterr().err
        assert err.count("event=backend-fallback") == 1
        assert 'detail="sentinel detail"' in err
        counter = global_registry().get("repro_log_events_total")
        assert counter.value(level="note", event="backend-fallback") == 2.0
        reset_log_notes()

    def test_none_detail_is_ignored(self, capsys):
        from repro.simulation.vectorized import note_backend_fallback

        note_backend_fallback(None)
        assert capsys.readouterr().err == ""
