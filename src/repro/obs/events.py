"""Typed simulator events and the compact binary ``.evt`` container.

An event is the 4-tuple ``(cycle, kind, a, b)`` — two integer payload
slots are enough for every event the simulator emits (a PC, a sequence
number, a cache-line address, a level id, a count).  The schema below
is the single source of truth for what each slot means; the viewer,
the docs, and the tests all read it from here.

The ``.evt`` container is a five-byte magic header followed by a flat
stream of varint-encoded events.  Cycles are delta-encoded against the
previous event and zigzag-mapped, because covert-channel receiver
probes replay recorded timestamps and can therefore step backwards in
time; payload slots are zigzag-mapped too so the format never has to
care about signedness.  A ~1M-cycle mcf trace lands around five bytes
per event.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

# ---------------------------------------------------------------- schema

EV_FETCH = 1          # a=pc                front end fetched one instr
EV_DISPATCH = 2       # a=seq  b=pc         entered the ROB
EV_ISSUE = 3          # a=seq  b=pc         left the issue queue
EV_COMMIT = 4         # a=seq  b=pc         architecturally retired
EV_PSEUDO_RETIRE = 5  # a=seq  b=pc         runahead pseudo-retire
EV_SQUASH = 6         # a=count b=pc        pipeline flush (b = new pc)
EV_MISPREDICT = 7     # a=seq  b=pc         branch resolved wrong
EV_RA_ENTER = 8       # a=seq  b=pc         runahead entered (stall head)
EV_RA_EXIT = 9        # a=duration b=pc     runahead exited
EV_INV = 10           # a=seq  b=pc         result poisoned INV
EV_MEM_ACCESS = 11    # a=line b=level      timed data access resolved
EV_CACHE_FILL = 12    # a=line b=level      line installed at level
EV_CACHE_EVICT = 13   # a=line b=level      line evicted from level
EV_CACHE_PROBE = 14   # a=line b=level      receiver probe (untimed path)
EV_FLUSH = 15         # a=line              clflush-style line flush

#: kind -> (name, (slot-a meaning, slot-b meaning))
EVENT_SCHEMA = {
    EV_FETCH: ("fetch", ("pc", "")),
    EV_DISPATCH: ("dispatch", ("seq", "pc")),
    EV_ISSUE: ("issue", ("seq", "pc")),
    EV_COMMIT: ("commit", ("seq", "pc")),
    EV_PSEUDO_RETIRE: ("pseudo_retire", ("seq", "pc")),
    EV_SQUASH: ("squash", ("count", "pc")),
    EV_MISPREDICT: ("mispredict", ("seq", "pc")),
    EV_RA_ENTER: ("runahead_enter", ("seq", "pc")),
    EV_RA_EXIT: ("runahead_exit", ("cycles", "pc")),
    EV_INV: ("inv", ("seq", "pc")),
    EV_MEM_ACCESS: ("mem_access", ("line", "level")),
    EV_CACHE_FILL: ("cache_fill", ("line", "level")),
    EV_CACHE_EVICT: ("cache_evict", ("line", "level")),
    EV_CACHE_PROBE: ("cache_probe", ("line", "level")),
    EV_FLUSH: ("flush", ("line", "")),
}

EVENT_NAMES = {kind: spec[0] for kind, spec in EVENT_SCHEMA.items()}

#: memory-hierarchy level strings (repro.memory.hierarchy) -> small ints
LEVEL_IDS = {"l1": 1, "l2": 2, "l3": 3, "mem": 4, "pending": 5}
LEVEL_NAMES = {ident: name for name, ident in LEVEL_IDS.items()}


def event_name(kind: int) -> str:
    return EVENT_NAMES.get(kind, f"unknown_{kind}")


# ------------------------------------------------------------- container

MAGIC = b"REVT\x01"

Event = Tuple[int, int, int, int]         # (cycle, kind, a, b)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _put_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def encode_events(events: Iterable[Event],
                  prev_cycle: int = 0) -> bytes:
    """Encode a run of events (no header) delta'd against
    ``prev_cycle``; streaming writers call this per chunk."""
    buf = bytearray()
    for cycle, kind, a, b in events:
        _put_uvarint(buf, kind)
        _put_uvarint(buf, _zigzag(cycle - prev_cycle))
        _put_uvarint(buf, _zigzag(a))
        _put_uvarint(buf, _zigzag(b))
        prev_cycle = cycle
    return bytes(buf)


def decode_events(data: bytes, prev_cycle: int = 0) -> List[Event]:
    """Inverse of :func:`encode_events`; raises ``ValueError`` on a
    truncated stream."""
    events: List[Event] = []
    pos, end = 0, len(data)

    def take() -> int:
        nonlocal pos
        shift = result = 0
        while True:
            if pos >= end:
                raise ValueError("truncated .evt stream")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    while pos < end:
        kind = take()
        prev_cycle += _unzigzag(take())
        a = _unzigzag(take())
        b = _unzigzag(take())
        events.append((prev_cycle, kind, a, b))
    return events


def load_events(path) -> List[Event]:
    """Read a ``.evt`` file back into ``(cycle, kind, a, b)`` tuples."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a .evt trace (bad magic)")
    return decode_events(data[len(MAGIC):])
