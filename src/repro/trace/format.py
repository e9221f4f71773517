"""The trace model: events and the in-memory ``Trace``.

A trace is an ordered stream of :class:`TraceEvent` records — the
dynamic loads, stores and conditional-branch outcomes of one execution —
plus a name.  The synthetic generators
(:mod:`repro.trace.synthetic`) fabricate SPEC-like ones, and
:class:`repro.trace.replay.TraceReplayWorkload` lowers one into a
runnable program.

A load with ``depends=True`` computed its address from an earlier
load's value (a pointer chase): replay re-serializes it behind the
previous load so runahead sees it as unprefetchable, just like mcf's
next-pointer walk.  Accesses are *word-granular*; cache-set geometry is
derived from the addresses, never stored.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List

LOAD = "load"
STORE = "store"
BRANCH = "branch"

KINDS = (LOAD, STORE, BRANCH)


@dataclass(frozen=True)
class TraceEvent:
    """One dynamic event: a load, a store, or a conditional branch.

    ``pc`` is the instruction address in the *source* program (kept for
    provenance and per-pc statistics; replay assigns new pcs).  Memory
    events carry ``address`` (word-aligned byte address); branch events
    carry ``taken``.  A load with ``depends=True`` computed its address
    from an earlier load's value (pointer chase): replay serializes it
    behind the previous load so its address is unknown — INV, in
    runahead terms — until that load returns.
    """

    pc: int
    kind: str
    address: int = 0
    taken: bool = False
    depends: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind != BRANCH and self.address % 8:
            raise ValueError(
                f"misaligned {self.kind} address {self.address:#x}")
        if self.depends and self.kind != LOAD:
            raise ValueError(
                f"depends is only meaningful on loads, not {self.kind}")

    @property
    def is_memory(self) -> bool:
        return self.kind != BRANCH


@dataclass
class Trace:
    """An ordered event stream with a name."""

    name: str
    events: List[TraceEvent] = field(default_factory=list)

    def taken_stream(self) -> List[bool]:
        """The taken/not-taken outcome sequence of all branch events."""
        return [e.taken for e in self.events if e.kind == BRANCH]

    def max_address(self) -> int:
        """Highest byte address any memory event touches (0 if none)."""
        return max((e.address for e in self.events if e.is_memory),
                   default=0)

    def digest(self) -> str:
        """Content hash of the event stream (name excluded).

        Used as the replay build-cache key: two traces with identical
        events lower to identical programs regardless of provenance.
        """
        hasher = hashlib.sha256()
        for event in self.events:
            hasher.update(f"{event.kind};{event.pc:x};{event.address:x};"
                          f"{int(event.taken)};"
                          f"{int(event.depends)}\n".encode())
        return hasher.hexdigest()
