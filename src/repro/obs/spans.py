"""Span tracing with explicit parents and Chrome trace-event export.

A :class:`Span` is a context manager that records one timed interval
(name, wall-clock start, duration, arguments).  Spans nest two ways:

* **Implicitly** -- each thread keeps a current-span stack, so a span
  opened inside another one parents under it with no plumbing.
* **Explicitly** -- pass ``parent=`` (a span, a span id, or a serialized
  record) when the parent lives in another thread or another *process*.
  That is how shard spans survive the process-pool boundary: workers
  trace into their own process-local tracer, :meth:`Tracer.drain` the
  finished records into picklable dicts, and the gathering process
  :meth:`Tracer.ingest`\\ s them, re-parenting each worker's root spans
  under the campaign span.

Timestamps are wall-clock microseconds (``time.time_ns() // 1000``), the
unit of the Chrome trace-event format, so records captured in different
processes land on one consistent timeline.  :meth:`Tracer.chrome_trace`
renders the collected spans as a Chrome/Perfetto-loadable trace: worker
records keep the exporter's pid but use their origin pid as the ``tid``
so each worker gets its own named row, and every event carries
``args.span_id`` / ``args.parent_id`` so the parent chain is asserted
directly by tests rather than inferred from time containment.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

__all__ = ["Span", "SpanRecord", "Tracer", "global_tracer", "reset_global_tracer"]


class SpanRecord:
    """One finished span, picklable via :meth:`to_dict`."""

    __slots__ = (
        "name",
        "category",
        "start_us",
        "duration_us",
        "span_id",
        "parent_id",
        "pid",
        "tid",
        "args",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start_us: int,
        duration_us: int,
        span_id: str,
        parent_id: Optional[str],
        pid: int,
        tid: int,
        args: Dict[str, Any],
    ) -> None:
        self.name = name
        self.category = category
        self.start_us = start_us
        self.duration_us = duration_us
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            name=str(payload["name"]),
            category=str(payload.get("category", "repro")),
            start_us=int(payload["start_us"]),
            duration_us=int(payload["duration_us"]),
            span_id=str(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else str(payload["parent_id"])
            ),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            args=dict(payload.get("args", {})),
        )


ParentLike = Union["Span", SpanRecord, str, None]


def _parent_id(parent: ParentLike) -> Optional[str]:
    if parent is None:
        return None
    if isinstance(parent, str):
        return parent
    return parent.span_id


class Span:
    """Context manager recording one interval into its tracer."""

    __slots__ = (
        "tracer",
        "name",
        "category",
        "span_id",
        "parent_id",
        "args",
        "_start_us",
        "_explicit_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        parent: ParentLike,
        args: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.category = category
        self.span_id = tracer._next_id()
        self._explicit_parent = parent is not None
        self.parent_id = _parent_id(parent)
        self.args = args
        self._start_us = 0

    def set_args(self, **args: Any) -> None:
        """Attach or update arguments while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        if not self._explicit_parent:
            self.parent_id = self.tracer.current_id()
        self.tracer._push(self.span_id)
        self._start_us = time.time_ns() // 1000
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_us = time.time_ns() // 1000
        self.tracer._pop(self.span_id)
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.tracer._append(
            SpanRecord(
                name=self.name,
                category=self.category,
                start_us=self._start_us,
                duration_us=max(end_us - self._start_us, 1),
                span_id=self.span_id,
                parent_id=self.parent_id,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFFFFFF,
                args=self.args,
            )
        )


class Tracer:
    """Collects finished spans and exports them as a Chrome trace."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._serial = 0
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------ #
    def _next_id(self) -> str:
        with self._lock:
            self._serial += 1
            return f"{os.getpid()}-{self._serial}"

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_id: str) -> None:
        self._stack().append(span_id)

    def _pop(self, span_id: str) -> None:
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # tolerate out-of-order exits
            stack.remove(span_id)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def current_id(self) -> Optional[str]:
        """Span id of this thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(
        self,
        name: str,
        *,
        category: str = "repro",
        parent: ParentLike = None,
        **args: Any,
    ) -> Span:
        """Open a span; without ``parent=`` it nests under the thread's
        current span."""
        return Span(self, name, category, parent, dict(args))

    def add(
        self,
        name: str,
        *,
        start_us: int,
        end_us: int,
        category: str = "repro",
        parent: ParentLike = None,
        **args: Any,
    ) -> SpanRecord:
        """Record an interval timed elsewhere -- e.g. a campaign whose
        shards ran in pool workers while this thread did other work.
        Without ``parent=`` it parents under the thread's current span."""
        record = SpanRecord(
            name=name,
            category=category,
            start_us=int(start_us),
            duration_us=max(int(end_us) - int(start_us), 1),
            span_id=self._next_id(),
            parent_id=self.current_id() if parent is None else _parent_id(parent),
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            args=dict(args),
        )
        self._append(record)
        return record

    # -- cross-process plumbing ---------------------------------------- #
    def drain(self) -> List[Dict[str, Any]]:
        """Remove and return all finished records as picklable dicts."""
        with self._lock:
            records, self._records = self._records, []
        return [record.to_dict() for record in records]

    def ingest(
        self,
        payloads: Iterable[Mapping[str, Any]],
        parent: ParentLike = None,
    ) -> int:
        """Adopt serialized records (e.g. from a pool worker).

        Records with no parent -- the worker's root spans -- are
        re-parented under ``parent`` so the cross-process hierarchy is
        explicit in the exported trace.
        """
        adopted_parent = _parent_id(parent)
        count = 0
        for payload in payloads:
            record = SpanRecord.from_dict(payload)
            if record.parent_id is None and adopted_parent is not None:
                record.parent_id = adopted_parent
            self._append(record)
            count += 1
        return count

    # -- inspection and export ----------------------------------------- #
    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        """Drop the finished records and this thread's open-span stack (a
        forked pool worker inherits both from the parent that forked it)."""
        with self._lock:
            self._records = []
        self._stack().clear()

    def chrome_trace(self) -> Dict[str, Any]:
        """Render collected spans as a Chrome trace-event JSON object."""
        records = self.records()
        exporter_pid = os.getpid()
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": exporter_pid,
                "tid": 0,
                "args": {"name": "repro"},
            }
        ]
        worker_rows = set()
        for record in records:
            local = record.pid == exporter_pid
            tid = record.tid if local else record.pid
            if not local and record.pid not in worker_rows:
                worker_rows.add(record.pid)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": exporter_pid,
                        "tid": tid,
                        "args": {"name": f"worker-{record.pid}"},
                    }
                )
            args = dict(record.args)
            args["span_id"] = record.span_id
            args["parent_id"] = record.parent_id
            if not local:
                args["worker_pid"] = record.pid
            events.append(
                {
                    "name": record.name,
                    "cat": record.category,
                    "ph": "X",
                    "ts": record.start_us,
                    "dur": record.duration_us,
                    "pid": exporter_pid,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, "os.PathLike[str]"]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1, sort_keys=True)
            handle.write("\n")


_GLOBAL = Tracer()


def global_tracer() -> Tracer:
    """The default tracer used by the engine, campaign, and CLI layers."""
    return _GLOBAL


def reset_global_tracer() -> None:
    _GLOBAL.reset()
