"""Original runahead execution: mechanics and invariants."""

import pytest

from repro import Core, CoreConfig, MemoryImage, assemble
from repro.isa import int_reg
from repro.runahead import NoRunahead, OriginalRunahead
from tests.sim import warm


def run_core(source, image=None, config=None, runahead=None, **kwargs):
    program = assemble(source, memory_image=image)
    core = Core(program, memory_image=image,
                config=config or CoreConfig.small(),
                runahead=runahead or OriginalRunahead(),
                warm_icache=True, **kwargs)
    core.run(max_cycles=500_000)
    return core


def stall_program(image, tail):
    """Cold load at the head of the window, then ``tail``."""
    image.alloc_array("cold", 2)
    return f"""
        li r1, @cold
        load r2, r1, 0       # memory-level miss: triggers runahead
        {tail}
        halt
    """


class TestEntryExit:
    def test_enters_and_exits_once(self):
        image = MemoryImage()
        core = run_core(stall_program(image, ".repeat 100, nop"), image)
        assert core.halted
        assert core.stats.runahead_episodes == 1
        assert core.stats.pseudo_retired > 0
        assert core.stats.runahead_cycles > 0
        assert core.mode == "normal"

    def test_no_entry_without_controller(self):
        image = MemoryImage()
        core = run_core(stall_program(image, ".repeat 100, nop"), image,
                        runahead=NoRunahead())
        assert core.stats.runahead_episodes == 0
        assert core.stats.pseudo_retired == 0

    def test_no_entry_on_cache_hit(self):
        image = MemoryImage()
        addr = image.alloc_array("warm", 2)
        source = """
            li r1, @warm
            load r2, r1, 0
            load r3, r1, 0
            halt
        """
        program = assemble(source, memory_image=image)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=OriginalRunahead(), warm_icache=True)
        warm(core.hierarchy, addr)
        core.run(max_cycles=100_000)
        assert core.stats.runahead_episodes == 0

    def test_architectural_state_restored(self):
        image = MemoryImage()
        addr = image.alloc_array("cold", 2)
        image.write_word(addr, 1234)
        core = run_core("""
            li r1, @cold
            li r3, 7
            load r2, r1, 0
            addi r3, r2, 1       # depends on the stalling load
            halt
        """, image)
        assert core.halted
        assert core.stats.runahead_episodes == 1
        assert core.arch_regs[int_reg(2)] == 1234
        assert core.arch_regs[int_reg(3)] == 1235

    def test_async_flush_of_stalling_line_prolongs_runahead(self):
        """An external (co-resident attacker) flush of the stalling line
        during runahead prolongs the episode (Fig. 10 case ③)."""
        from repro.attack.window import measure_window
        from repro.runahead import OriginalRunahead

        base = measure_window(OriginalRunahead(), sled=512,
                              config=CoreConfig.small())
        extended = measure_window(OriginalRunahead(), async_flushes=1,
                                  sled=512, config=CoreConfig.small())
        assert extended.cycles > base.cycles
        assert extended.window >= base.window

    def test_self_flushing_program_livelocks(self):
        """A program that re-flushes its own stalling line livelocks the
        runahead machine: the younger clflush re-executes after every
        exit and re-drops the fill.  This is why the paper calls the
        repeated-flush scenario 'probabilistic' — it needs a second
        thread, not straight-line code."""
        from repro.attack.window import window_program

        program, image = window_program(sled=64, self_flushes=1)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=OriginalRunahead(), warm_icache=True)
        core.run(max_cycles=30_000)
        assert not core.halted
        assert core.stats.runahead_episodes > 5


class TestInvPropagation:
    def test_inv_sources_poison_dependents(self):
        image = MemoryImage()
        core = run_core(stall_program(image, """
            addi r3, r2, 1
            add r4, r3, r3
            .repeat 50, nop
        """), image)
        assert core.stats.inv_instructions >= 2

    def test_independent_work_executes_validly(self):
        image = MemoryImage()
        core = run_core(stall_program(image, """
            li r5, 3
            muli r6, r5, 7
            .repeat 50, nop
        """), image)
        # Independent instructions pseudo-retire with real values: the
        # INV count stays at 0 beyond load-dependent ones.
        assert core.stats.inv_instructions == 0
        assert core.arch_regs[int_reg(6)] == 21

    def test_inv_branch_never_resolves(self):
        image = MemoryImage()
        core = run_core(stall_program(image, """
            bge r2, r0, over      # predicate depends on stalling load
            nop
        over:
            .repeat 50, nop
        """), image)
        assert core.stats.inv_branches >= 1

    def test_valid_branch_resolves_inside_runahead(self):
        image = MemoryImage()
        core = run_core(stall_program(image, """
            li r5, 1
            beq r5, r0, nothere   # valid sources: resolves in runahead
            addi r6, r5, 1
        nothere:
            .repeat 50, nop
        """), image)
        assert core.stats.runahead_episodes == 1
        assert core.stats.inv_branches == 0


class TestPrefetchBenefit:
    def test_runahead_prefetches_miss_beyond_rob_reach(self):
        """The defining benefit (paper Fig. 5): an independent miss too far
        ahead for the ROB to reach is prefetched only under runahead."""
        def build_image():
            image = MemoryImage()
            image.alloc_array("cold_a", 2)
            image.alloc_array("cold_b", 2)
            return image

        # 60 nops > small-config ROB (32): without runahead the second
        # load cannot even dispatch until the first one completes.
        source = """
            li r1, @cold_a
            li r3, @cold_b
            load r2, r1, 0       # stalls; runahead begins
            .repeat 60, nop
            load r4, r3, 0       # beyond the ROB: prefetched by runahead
            halt
        """
        with_ra = run_core(source, build_image())
        without = run_core(source, build_image(), runahead=NoRunahead())
        assert with_ra.stats.runahead_prefetches >= 1
        # The two memory latencies overlap only under runahead.
        assert with_ra.stats.cycles < without.stats.cycles - 100

    def test_memory_miss_in_runahead_returns_inv_not_waits(self):
        image = MemoryImage()
        image.alloc_array("cold_a", 2)
        image.alloc_array("cold_b", 2)
        core = run_core("""
            li r1, @cold_a
            li r3, @cold_b
            load r2, r1, 0
            load r4, r3, 0       # second miss: INV result, prefetch issued
            addi r5, r4, 1       # poisoned
            halt
        """, image)
        assert core.stats.runahead_prefetches >= 1
        assert core.stats.inv_instructions >= 1
        # Architecture still correct after exit and re-execution.
        assert core.arch_regs[int_reg(5)] == 1


class TestRunaheadCache:
    def test_store_forwarding_through_runahead_cache(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        image.alloc_array("scratch", 2)
        core = run_core("""
            li r1, @cold
            li r3, @scratch
            li r5, 88
            load r2, r1, 0
            store r5, r3, 0      # pseudo-retires into the runahead cache
            .repeat 30, nop
            load r6, r3, 0       # reads it back inside runahead
            halt
        """, image)
        assert core.runahead_cache.writes >= 1
        assert core.runahead_cache.hits >= 1
        # Architecture: the store *does* commit on re-execution.
        assert core.arch_regs[int_reg(6)] == 88

    def test_runahead_store_does_not_reach_memory_during_runahead(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        scratch = image.alloc_array("scratch", 2)
        source = """
            li r1, @cold
            li r3, @scratch
            li r5, 88
            load r2, r1, 0
            store r5, r3, 0
            .repeat 200, nop
            halt
        """
        program = assemble(source, memory_image=image)
        core = Core(program, memory_image=image, config=CoreConfig.small(),
                    runahead=OriginalRunahead(), warm_icache=True)
        # Step until we are inside runahead with the store pseudo-retired.
        while core.stats.pseudo_retired < 10 and core.cycle < 50_000:
            core.step()
        assert core.mode == "runahead"
        assert core.memory.read_word(scratch) == 0
        core.run(max_cycles=200_000)
        assert core.memory.read_word(scratch) == 88
