"""The trace model: events and derived views."""

import pytest

from repro.trace import BRANCH, LOAD, STORE, Trace, TraceEvent

from .record import footprint_lines, set_stream


def _sample():
    return Trace("sample", [
        TraceEvent(pc=0x100, kind=LOAD, address=0x10_0040),
        TraceEvent(pc=0x104, kind=STORE, address=0x10_0080),
        TraceEvent(pc=0x108, kind=BRANCH, taken=True),
        TraceEvent(pc=0x10c, kind=LOAD, address=0x10_0040, depends=True),
        TraceEvent(pc=0x110, kind=BRANCH, taken=False),
    ], meta={"family": "unit"})


class TestEvents:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TraceEvent(pc=0, kind="jump")

    def test_rejects_misaligned_address(self):
        with pytest.raises(ValueError, match="misaligned"):
            TraceEvent(pc=0, kind=LOAD, address=0x1001)

    def test_depends_only_on_loads(self):
        with pytest.raises(ValueError, match="depends"):
            TraceEvent(pc=0, kind=STORE, address=0x40, depends=True)

    def test_branch_is_not_memory(self):
        assert not TraceEvent(pc=0, kind=BRANCH).is_memory
        assert TraceEvent(pc=0, kind=LOAD, address=8).is_memory


class TestDerivedViews:
    def test_streams_and_counts(self):
        trace = _sample()
        assert trace.taken_stream() == [True, False]
        assert trace.max_address() == 0x10_0080
        assert Trace("empty").max_address() == 0

    def test_footprint_and_set_stream(self):
        trace = _sample()
        assert footprint_lines(trace) == 2
        # paper L1D: 64 sets of 64B lines.
        sets = set_stream(trace, 64)
        assert sets == [(0x10_0040 // 64) % 64, (0x10_0080 // 64) % 64,
                        (0x10_0040 // 64) % 64]

    def test_digest_covers_depends(self):
        trace = _sample()
        flat = Trace("sample", [
            TraceEvent(e.pc, e.kind, e.address, e.taken, False)
            for e in trace.events], meta=trace.meta)
        assert trace.digest() != flat.digest()

