"""Precise and vector runahead: variant-specific mechanisms."""

import hashlib

import pytest

from repro import Core, CoreConfig, MemoryImage, assemble
from repro.harness.registry import get_workload
from repro.runahead import (OriginalRunahead, PreciseRunahead, RunaheadCache,
                            VectorRunahead, compute_stall_slices)
from repro.runahead.vector import _StrideEntry


class TestStallSlices:
    def test_address_chain_is_in_slice(self):
        program = assemble("""
            li r1, 0x1000        # address chain
            addi r2, r1, 8
            load r3, r2, 0
            add r4, r3, r3       # consumer: NOT in slice
            halt
        """)
        slices = compute_stall_slices(program)
        assert {0, 1, 2} <= slices
        assert 3 not in slices

    def test_nested_chain(self):
        program = assemble("""
            li r1, 0x1000
            load r2, r1, 0       # produces an address
            load r3, r2, 0       # dependent load: r1, load r2 in slice
            halt
        """)
        slices = compute_stall_slices(program)
        assert {0, 1, 2} <= slices

    def test_pure_compute_not_in_slice(self):
        program = assemble("""
            li r1, 1
            li r5, 2
            mul r6, r5, r5       # feeds nothing address-like
            load r2, r1, 0
            halt
        """)
        slices = compute_stall_slices(program)
        assert 2 not in slices

    def test_ret_counts_as_load(self):
        program = assemble("ret")
        assert 0 in compute_stall_slices(program)

    def test_loop_carried_address(self):
        program = assemble("""
            li r1, 0x1000
            li r6, 8             # stride: two hops from the load
            li r4, 10
        loop:
            load r2, r1, 0
            add r5, r5, r2       # consumer: NOT in slice
            add r1, r1, r6       # loop-carried address register
            addi r4, r4, -1      # trip count feeds only the branch
            bne r4, r0, loop
            halt
        """)
        assert compute_stall_slices(program) == {0, 1, 3, 5}

    def test_self_dependency(self):
        program = assemble("""
            li r1, 0x1000
            addi r1, r1, 8       # reads its own destination
            addi r7, r7, 1       # self-dependent, feeds no address
            load r2, r1, 0
            halt
        """)
        assert compute_stall_slices(program) == {0, 1, 3}

    def test_redefinition_after_use_stays_in_slice(self):
        """Flow-insensitive: a definition that no path carries to the
        load still counts, because every definition reaches every use."""
        program = assemble("""
            li r1, 0x1000
            load r2, r1, 0
            li r1, 0x2000        # redefined after its only use
            halt
        """)
        assert compute_stall_slices(program) == {0, 1, 2}


#: ``(len, sha256 of the sorted indices joined by commas)`` of each
#: sim-sweep kernel's stall slice, recorded with the def-use graph
#: (``networkx.ancestors`` per load) that the worklist replaced.
KERNEL_SLICES = {
    "zeusmp": (6, "172b2fb4d96a2232ca5f1b8868c66416"
                  "c1a5fb9ffcd4748454e755aa616efff0"),
    "wrf": (4, "fb0d3744db4668f3a0c0fe93144ea891"
               "09bb8005ec3cfe8c10041c73862832d0"),
    "bwaves": (5, "4d0f826cc641236e66accf571e3a8bac"
                  "31076ab9885a91fe89f6ae754e8aa48e"),
    "lbm": (4, "8b9d2532e498ded4ff749438f0bd7f2e"
               "2b2546c89ccd93dc10aeff241e1c8e3d"),
    "mcf": (15, "d545e48aa4048e48e78f5d9c95859686"
                "5c63f82ea15b392f7f3d76def6db32d2"),
    "gems": (10, "b9a9611ec38d786f433302534e8239aa"
                 "b1538778895ece9847176936394160d0"),
    "trace-mcf": (2133, "e3704d44014f2f84617f6ffab5b86318"
                        "226994b586514b0d8be1f61332df25a9"),
    "trace-stream": (1601, "83a5f5a659bd7c3d5fd0565f43cdd7c8"
                           "a9cc31e1c8851766b59d4c29bdce0886"),
    "trace-gcc": (1446, "53032186791d2ceac6573f7dc21a2ebe"
                        "a78ed742e5fcc043064c2fa6ab82a26e"),
    "trace-zipf": (1664, "476479b3880651a1f50ceacb2e7dbad6"
                         "6e302bb02e1f03d0accc05a877451896"),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_SLICES))
def test_kernel_slices_unchanged(kernel):
    program = get_workload(kernel).materialize()[0]
    slices = compute_stall_slices(program)
    digest = hashlib.sha256(
        ",".join(map(str, sorted(slices))).encode()).hexdigest()
    assert (len(slices), digest) == KERNEL_SLICES[kernel]


class TestPreciseRunahead:
    def test_filters_only_in_runahead(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        source = """
            li r1, @cold
            load r2, r1, 0
            .repeat 40, muli r5, r5, 3
            halt
        """
        program = assemble(source, memory_image=image)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=PreciseRunahead(), warm_icache=True)
        core.run(max_cycles=200_000)
        assert core.halted
        assert core.stats.filtered_instructions > 0
        # Architecture unaffected by filtering.
        assert core.arch_regs[5] == 0    # r5 starts 0; muli keeps 0

    def test_filtered_instructions_use_no_backend(self):
        """With a huge non-slice body, precise runahead still pseudo-
        retires it entirely (nothing waits on the issue queue)."""
        image = MemoryImage()
        image.alloc_array("cold", 2)
        source = """
            li r1, @cold
            load r2, r1, 0
            .repeat 200, fmul f1, f2, f3
            halt
        """
        program = assemble(source, memory_image=image)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=PreciseRunahead(), warm_icache=True)
        core.run(max_cycles=200_000)
        assert core.stats.filtered_instructions >= 100

    def test_slice_size_property(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        program = assemble("li r1, @cold\nload r2, r1, 0\nhalt",
                           memory_image=image)
        controller = PreciseRunahead()
        Core(program, memory_image=image, config=CoreConfig.small(),
             runahead=controller)
        # The load and the ``li`` that produces its address.
        assert controller._slices == compute_stall_slices(program) == {0, 1}


class TestStrideDetection:
    def test_stride_entry_confidence(self):
        entry = _StrideEntry(100)
        entry.observe(164)
        assert entry.confidence == 1
        entry.observe(228)
        assert entry.confidence == 2
        entry.observe(300)    # stride broken
        assert entry.confidence <= 1

    def test_zero_stride_never_confident(self):
        entry = _StrideEntry(100)
        for _ in range(5):
            entry.observe(100)
        assert entry.confidence == 0

    def test_vector_prefetches_on_strided_stream(self):
        image = MemoryImage()
        image.alloc_array("stream", 1024)
        image.alloc_array("cold", 2)
        source = """
            li r1, @cold
            li r3, @stream
            li r4, 40
        warm_stride:
            load r5, r3, 0       # trains the stride table in normal mode
            addi r3, r3, 64
            addi r4, r4, -1
            bne r4, r0, warm_stride
            load r2, r1, 0       # stall: enter runahead
            li r4, 30
        ra_loop:
            load r5, r3, 0       # strided loads inside runahead
            addi r3, r3, 64
            addi r4, r4, -1
            bne r4, r0, ra_loop
            halt
        """
        program = assemble(source, memory_image=image)
        core = Core(program, memory_image=image, config=CoreConfig.paper(),
                    runahead=VectorRunahead(), warm_icache=True)
        core.run(max_cycles=500_000)
        assert core.halted
        assert core.stats.vector_prefetches > 0

    def test_vector_faster_than_original_on_strided_misses(self):
        def run(controller):
            image = MemoryImage()
            image.alloc_array("cold", 2)
            image.alloc_array("stream", 4096)
            source = """
                li r1, @cold
                li r3, @stream
                li r4, 100
            loop:
                load r5, r3, 0
                add r6, r6, r5
                addi r3, r3, 64
                load r2, r1, 0     # re-triggering stall each lap
                addi r4, r4, -1
                clflush r1, 0
                bne r4, r0, loop
                halt
            """
            program = assemble(source, memory_image=image)
            core = Core(program, memory_image=image,
                        config=CoreConfig.paper(), runahead=controller,
                        warm_icache=True)
            core.run(max_cycles=2_000_000)
            assert core.halted
            return core.stats.cycles

        original = run(OriginalRunahead())
        vector = run(VectorRunahead())
        # Scalar runahead already reaches every load of this short loop,
        # so vector's lane prefetches can only tie (plus channel noise);
        # the win case needs loops deeper than the runahead interval.
        assert vector <= original * 1.02


class TestRunaheadCache:
    def test_write_read_round_trip(self):
        cache = RunaheadCache(capacity=4)
        cache.write(0x100, 42, inv=False)
        assert cache.read(0x100) == (42, False)

    def test_inv_marker(self):
        cache = RunaheadCache(capacity=4)
        cache.write(0x100, 0, inv=True)
        value, inv = cache.read(0x100)
        assert inv

    def test_fifo_eviction(self):
        cache = RunaheadCache(capacity=2)
        cache.write(0x0, 1)
        cache.write(0x8, 2)
        cache.write(0x10, 3)
        assert cache.read(0x0) is None
        assert cache.read(0x10) == (3, False)

    def test_rewrite_updates_in_place(self):
        cache = RunaheadCache(capacity=2)
        cache.write(0x0, 1)
        cache.write(0x0, 9)
        assert len(cache) == 1
        assert cache.read(0x0) == (9, False)

    def test_clear_keeps_stats(self):
        cache = RunaheadCache(capacity=2)
        cache.write(0x0, 1)
        cache.read(0x0)
        cache.clear()
        assert len(cache) == 0
        assert cache.writes == 1
        assert cache.hits == 1

    def test_bad_capacity(self):
        import pytest
        with pytest.raises(ValueError):
            RunaheadCache(capacity=0)
