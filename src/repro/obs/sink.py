"""Trace sinks the simulator emits events into.

The zero-overhead-when-off contract lives in the *emitters*, not here:
``Core`` and ``MemoryHierarchy`` hold ``self.trace = None`` by default
and guard every emit with an is-``None`` test, so an untraced run pays
one pointer check per instrumented site and allocates nothing.  When a
sink is attached it receives ``emit(cycle, kind, a, b)`` calls and must
never touch simulator state — sinks observe, they do not participate.
"""

from __future__ import annotations

from typing import List

from .events import MAGIC, Event, encode_events

_FLUSH_BYTES = 1 << 16


class TraceSink:
    """Interface: override :meth:`emit`; :meth:`close` is optional."""

    def emit(self, cycle: int, kind: int, a: int = 0,
             b: int = 0) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @property
    def closed(self) -> bool:
        return False

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        # Runs on error too: whatever was emitted before the exception
        # is flushed and the file sealed (flush-on-error).  The guard
        # keeps an explicit close() inside the ``with`` block from
        # turning into a double-close error here.
        if not self.closed:
            self.close()


class FileSink(TraceSink):
    """Stream events into a compact binary ``.evt`` file.

    Events are varint-encoded in ~64 KiB chunks so multi-million-event
    traces never hold the whole stream in memory.  The file is valid
    only after :meth:`close` (truncated tails raise on load).

    Use as a context manager for exception safety: ``__exit__`` closes
    (and therefore flushes the buffered tail) even when the block
    raises.  After :meth:`close`, :meth:`emit` and a second explicit
    :meth:`close` raise :class:`ValueError` instead of silently
    buffering into (or writing to) a closed handle.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle = open(path, "wb")
        self._handle.write(MAGIC)
        self._pending: List[Event] = []
        self._prev_cycle = 0
        self.count = 0

    @property
    def closed(self) -> bool:
        return self._handle is None

    def emit(self, cycle: int, kind: int, a: int = 0,
             b: int = 0) -> None:
        if self._handle is None:
            raise ValueError(f"FileSink({self.path!s}) is closed; "
                             f"events emitted now would be lost")
        self._pending.append((cycle, kind, a, b))
        self.count += 1
        if len(self._pending) >= 8192:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._handle.write(
                encode_events(self._pending, self._prev_cycle))
            self._prev_cycle = self._pending[-1][0]
            self._pending.clear()

    def close(self) -> None:
        if self._handle is None:
            raise ValueError(f"FileSink({self.path!s}) already closed")
        handle = self._handle
        self._handle = None     # mark closed first: no re-entry even
        try:                    # if the final flush fails
            if self._pending:
                handle.write(
                    encode_events(self._pending, self._prev_cycle))
                self._pending.clear()
        finally:
            handle.close()      # the OS handle never leaks
