"""The .evt codec: schema sanity and round-trip properties."""

import random

import pytest

from repro.obs.events import (EVENT_NAMES, EVENT_SCHEMA, LEVEL_IDS,
                              LEVEL_NAMES, MAGIC, decode_events,
                              encode_events, event_name, load_events)
from repro.obs.sink import FileSink


def save_events(path, events):
    """Stream ``events`` into a ``.evt`` file the way ``obs record``
    does; returns the event count."""
    with FileSink(path) as sink:
        for event in events:
            sink.emit(*event)
    return sink.count


class TestSchema:
    def test_kinds_are_contiguous_small_ints(self):
        kinds = sorted(EVENT_SCHEMA)
        assert kinds == list(range(1, len(kinds) + 1))

    def test_names_are_unique(self):
        names = list(EVENT_NAMES.values())
        assert len(names) == len(set(names))

    def test_event_name_falls_back_for_unknown_kinds(self):
        assert event_name(1) == "fetch"
        assert event_name(999) == "unknown_999"

    def test_level_ids_round_trip(self):
        for name, ident in LEVEL_IDS.items():
            assert LEVEL_NAMES[ident] == name


def random_stream(seed, n=2000):
    """A stream with the awkward shapes real traces have: bursts at
    one cycle, large jumps, *backwards* cycles (receiver probes replay
    recorded timestamps), and full-range payload values."""
    rng = random.Random(seed)
    cycle = 0
    events = []
    for _ in range(n):
        step = rng.choice((0, 0, 1, 1, 3, 17, 40_000, -5, -1200))
        cycle += step
        kind = rng.randint(1, 15)
        a = rng.choice((0, 1, rng.getrandbits(20), rng.getrandbits(48)))
        b = rng.choice((0, rng.getrandbits(16), rng.getrandbits(40)))
        events.append((cycle, kind, a, b))
    return events


class TestCodec:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_property(self, seed):
        events = random_stream(seed)
        assert decode_events(encode_events(events)) == events

    def test_round_trip_with_nonzero_prev_cycle(self):
        events = random_stream(99, n=50)
        blob = encode_events(events, prev_cycle=123)
        assert decode_events(blob, prev_cycle=123) == events

    def test_chunked_encoding_concatenates(self):
        """FileSink writes in chunks, each delta'd against the last
        cycle of the previous chunk — concatenation must decode to
        the whole stream."""
        events = random_stream(7, n=100)
        head, tail = events[:60], events[60:]
        blob = encode_events(head) + \
            encode_events(tail, prev_cycle=head[-1][0])
        assert decode_events(blob) == events

    def test_empty_stream(self):
        assert encode_events([]) == b""
        assert decode_events(b"") == []

    def test_truncated_stream_raises(self):
        blob = encode_events(random_stream(3, n=10))
        with pytest.raises(ValueError, match="truncated"):
            decode_events(blob[:-1])


class TestFile:
    def test_save_load_round_trip(self, tmp_path):
        events = random_stream(11, n=500)
        path = tmp_path / "t.evt"
        assert save_events(path, events) == 500
        assert load_events(path) == events
        assert path.read_bytes().startswith(MAGIC)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bogus.evt"
        path.write_bytes(b"NOPE\x00" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            load_events(path)

    def test_compactness(self, tmp_path):
        """The point of the format: a small-delta stream costs a few
        bytes per event, not the 32 of a naive struct."""
        events = [(i, 1 + i % 15, i % 64, 0) for i in range(10_000)]
        path = tmp_path / "dense.evt"
        save_events(path, events)
        assert path.stat().st_size < 6 * len(events)
