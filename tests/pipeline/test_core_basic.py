"""Core pipeline: basic execution semantics and timing sanity."""

import pytest

from repro import Core, CoreConfig, MemoryImage, assemble
from repro.isa import int_reg, parse_reg
from tests.sim import resident_lines


def run_core(source, image=None, config=None, warm_icache=True, **kwargs):
    program = assemble(source, memory_image=image)
    core = Core(program, memory_image=image,
                config=config or CoreConfig.small(),
                warm_icache=warm_icache, **kwargs)
    core.run(max_cycles=200_000)
    assert core.halted, "program did not reach halt"
    return core


class TestStraightLine:
    def test_alu_chain(self):
        core = run_core("""
            li r1, 5
            li r2, 7
            add r3, r1, r2
            mul r4, r3, r2
            halt
        """)
        assert core.arch_regs[int_reg(3)] == 12
        assert core.arch_regs[int_reg(4)] == 84

    def test_dependency_ordering(self):
        core = run_core("""
            li r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
            halt
        """)
        assert core.arch_regs[int_reg(1)] == 4

    def test_zero_register_ignored(self):
        core = run_core("""
            li r0, 77
            mov r1, r0
            halt
        """)
        assert core.arch_regs[int_reg(1)] == 0

    def test_fp_latency_respected(self):
        core = run_core("""
            li r1, 2
            fcvt f1, r1
            fmul f2, f1, f1
            fadd f3, f2, f1
            halt
        """)
        assert core.arch_regs[parse_reg("f2")] == 4.0
        assert core.arch_regs[parse_reg("f3")] == 6.0
        # fcvt(5) + fmul(10) + fadd(5) plus pipeline overheads.
        assert core.stats.cycles >= 20

    def test_ipc_bounded_by_width(self):
        core = run_core(".repeat 100, nop\nhalt")
        assert core.stats.committed == 101
        assert core.stats.ipc <= core.config.width


class TestMemoryOps:
    def test_store_load_round_trip(self):
        image = MemoryImage()
        image.alloc_array("buf", 4)
        core = run_core("""
            li r1, @buf
            li r2, 99
            store r2, r1, 8
            load r3, r1, 8
            halt
        """, image)
        assert core.arch_regs[int_reg(3)] == 99

    def test_store_to_load_forwarding_is_fast(self):
        image = MemoryImage()
        image.alloc_array("buf", 4)
        core = run_core("""
            li r1, @buf
            li r2, 42
            store r2, r1, 0
            load r3, r1, 0
            halt
        """, image)
        assert core.arch_regs[int_reg(3)] == 42
        # The load must not pay a memory round trip: with forwarding the
        # whole program takes well under the 200-cycle memory latency.
        assert core.stats.cycles < 100

    def test_load_sees_committed_store_not_stale_memory(self):
        image = MemoryImage()
        addr = image.alloc_array("buf", 2)
        image.write_word(addr, 1)
        core = run_core("""
            li r1, @buf
            li r2, 2
            store r2, r1, 0
            .repeat 20, nop
            load r3, r1, 0
            halt
        """, image)
        assert core.arch_regs[int_reg(3)] == 2

    def test_vector_memory(self):
        image = MemoryImage()
        addr = image.alloc_array("v", 4)
        image.write_words(addr, [3, 4])
        core = run_core("""
            li r1, @v
            vload x1, r1, 0
            vadd x2, x1, x1
            vstore x2, r1, 16
            load r2, r1, 16
            load r3, r1, 24
            halt
        """, image)
        assert core.arch_regs[int_reg(2)] == 6
        assert core.arch_regs[int_reg(3)] == 8

    def test_memory_level_miss_latency_visible(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        core = run_core("""
            li r1, @cold
            load r2, r1, 0
            halt
        """, image)
        # A single cold miss must cost at least the memory latency.
        assert core.stats.cycles >= core.config.hierarchy.mem_latency


class TestSerialization:
    def test_rdtsc_pairs_measure_latency(self):
        image = MemoryImage()
        image.alloc_array("probe", 2)
        core = run_core("""
            li r1, @probe
            load r9, r1, 0       # warm the line
            fence
            rdtsc r2
            load r3, r1, 0
            fence
            rdtsc r4
            sub r5, r4, r2
            halt
        """, image)
        measured = core.arch_regs[int_reg(5)]
        # Warm line: small latency, strictly positive.
        assert 0 < measured < 40

    def test_rdtsc_measures_cold_miss(self):
        image = MemoryImage()
        image.alloc_array("cold", 2)
        core = run_core("""
            li r1, @cold
            fence
            rdtsc r2
            load r3, r1, 0
            fence
            rdtsc r4
            sub r5, r4, r2
            halt
        """, image)
        assert core.arch_regs[int_reg(5)] >= \
            core.config.hierarchy.mem_latency

    def test_fence_drains(self):
        core = run_core("""
            li r1, 3
            mul r2, r1, r1
            fence
            rdtsc r3
            halt
        """)
        assert core.stats.fence_stalls >= 1


class TestClflush:
    def test_flush_makes_reload_slow(self):
        image = MemoryImage()
        image.alloc_array("target", 2)
        core = run_core("""
            li r1, @target
            load r2, r1, 0       # warm
            fence
            clflush r1, 0
            fence
            rdtsc r3
            load r4, r1, 0
            fence
            rdtsc r5
            sub r6, r5, r3
            halt
        """, image)
        assert core.arch_regs[int_reg(6)] >= \
            core.config.hierarchy.mem_latency


class TestTermination:
    def test_missing_halt_quiesces(self):
        program = assemble("li r1, 1")
        core = Core(program, config=CoreConfig.small())
        core.run(max_cycles=10_000)
        assert not core.halted
        assert core.arch_regs[int_reg(1)] == 1
        assert core.stats.cycles < 10_000   # quiesced, not spun

    def test_rename_pressure_does_not_deadlock(self):
        # More independent dests than rename registers.
        source = "\n".join(f"li r{i % 20 + 1}, {i}" for i in range(200))
        core = run_core(source + "\nhalt")
        assert core.stats.committed == 201


def _fields(program):
    return [(i.opcode, i.dest, i.srcs, i.imm, i.target) for i in program]


class TestSetupCost:
    """Building a core costs what the trial touches: a cache set exists
    only once filled, and no read allocates one."""

    @staticmethod
    def allocated(cache):
        return {i for i, ways in enumerate(cache._sets) if ways is not None}

    def test_fresh_core_allocates_only_code_line_sets(self):
        program = assemble(".repeat 300, nop\nhalt")
        core = Core(program, config=CoreConfig.paper(), warm_icache=True)
        hierarchy = core.hierarchy
        lines = {hierarchy.line_of(pc)
                 for pc in range(0, program.end_pc, 64)}
        assert len(lines) == 19              # 301 instructions * 4 bytes
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2,
                      hierarchy.l3):
            sets = {(line >> 6) & (cache.config.n_sets - 1)
                    for line in lines}
            assert self.allocated(cache) == sets
            assert sorted(resident_lines(cache)) == sorted(lines)

    def test_cold_core_allocates_nothing(self):
        core = Core(assemble("halt"), config=CoreConfig.paper())
        hierarchy = core.hierarchy
        for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2,
                      hierarchy.l3):
            assert self.allocated(cache) == set()

    def test_probe_latency_on_untouched_sets_allocates_nothing(self):
        core = Core(assemble("halt"), config=CoreConfig.paper(),
                    warm_icache=True)
        hierarchy = core.hierarchy
        caches = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3)
        before = [self.allocated(cache) for cache in caches]
        for addr in range(0x10000, 0x20000, 0x1040):
            assert hierarchy.probe_latency(addr, 0)[0] == \
                hierarchy.config.data_miss_latency
        assert [self.allocated(cache) for cache in caches] == before


class TestProgramIsReadOnly:
    """``Core.run`` never mutates a program: ``.repeat`` slots share one
    Instruction object, and programs may be reused across cores."""

    def test_window_program(self):
        from repro.attack.window import window_program
        from repro.runahead import OriginalRunahead

        program, image = window_program(sled=512)
        before = _fields(program)
        core = Core(program, memory_image=image, config=CoreConfig.paper(),
                    runahead=OriginalRunahead(), warm_icache=True)
        core.run(max_cycles=200_000)
        assert core.halted
        assert core.stats.runahead_episodes > 0
        assert _fields(program) == before

    def test_pht_gadget(self):
        from repro.attack import build_attack
        from repro.runahead import OriginalRunahead

        attack = build_attack("pht")
        before = _fields(attack.program)
        core = Core(attack.program, memory_image=attack.image,
                    config=CoreConfig.paper(), runahead=OriginalRunahead(),
                    initial_sp=attack.initial_sp, warm_icache=True)
        core.run(max_cycles=2_000_000)
        assert core.halted
        assert _fields(attack.program) == before
