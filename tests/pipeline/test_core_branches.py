"""Core pipeline: branches, speculation, recovery, call/ret."""

from repro import Core, CoreConfig, MemoryImage, assemble
from repro.isa import int_reg


def run_core(source, image=None, config=None, **kwargs):
    program = assemble(source, memory_image=image)
    core = Core(program, memory_image=image,
                config=config or CoreConfig.small(), warm_icache=True,
                **kwargs)
    core.run(max_cycles=500_000)
    assert core.halted, "program did not reach halt"
    return core


class TestBranches:
    def test_loop_result(self):
        core = run_core("""
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            bne r2, r0, loop
            halt
        """)
        assert core.arch_regs[int_reg(1)] == 55

    def test_mispredictions_do_not_corrupt_state(self):
        # Alternating branch pattern forces mispredicts; result must hold.
        core = run_core("""
            li r1, 0      # accumulator
            li r2, 0      # i
            li r3, 20     # limit
        loop:
            andi r4, r2, 1
            beq r4, r0, even
            addi r1, r1, 100
            jmp next
        even:
            addi r1, r1, 1
        next:
            addi r2, r2, 1
            bne r2, r3, loop
            halt
        """)
        assert core.arch_regs[int_reg(1)] == 10 * 100 + 10 * 1
        assert core.stats.branch_mispredicts > 0
        assert core.stats.squashed > 0

    def test_wrong_path_stores_never_commit(self):
        image = MemoryImage()
        addr = image.alloc_array("flag", 2)
        core = run_core("""
            li r1, @flag
            li r2, 1
            li r3, 1
            beq r3, r0, poison    # never taken... but cold predictor
            jmp done
        poison:
            store r2, r1, 0
        done:
            halt
        """, image)
        assert core.memory.read_word(addr) == 0

    def test_indirect_jump(self):
        core = run_core("""
            li r1, 16            # address of target instruction
            jr r1
            li r2, 1             # skipped
            li r3, 2             # skipped (pc=8)
            li r4, 3             # skipped (pc=12)
            li r5, 4             # target (pc=16)
            halt
        """)
        assert core.arch_regs[int_reg(2)] == 0
        assert core.arch_regs[int_reg(5)] == 4

    def test_nested_branches(self):
        core = run_core("""
            li r1, 0
            li r2, 5
            li r3, 3
            blt r2, r3, skip_outer
            addi r1, r1, 1
            blt r3, r2, inner_hit
            jmp skip_outer
        inner_hit:
            addi r1, r1, 2
        skip_outer:
            halt
        """)
        assert core.arch_regs[int_reg(1)] == 3


class TestCallRet:
    def make_image(self):
        image = MemoryImage()
        sp = image.alloc_stack(32)
        return image, sp

    def test_simple_call(self):
        image, sp = self.make_image()
        core = run_core("""
            li r1, 1
            call fn
            addi r1, r1, 10
            halt
        fn:
            addi r1, r1, 100
            ret
        """, image, initial_sp=sp)
        assert core.arch_regs[int_reg(1)] == 111
        assert core.arch_regs[int_reg(29)] == sp

    def test_nested_calls(self):
        image, sp = self.make_image()
        core = run_core("""
            li r1, 0
            call outer
            halt
        outer:
            addi r1, r1, 1
            call inner
            addi r1, r1, 4
            ret
        inner:
            addi r1, r1, 2
            ret
        """, image, initial_sp=sp)
        assert core.arch_regs[int_reg(1)] == 7

    def test_recursion(self):
        image, sp = self.make_image()
        # sum(1..5) by recursion.
        core = run_core("""
            li r1, 5
            li r2, 0
            call rec
            halt
        rec:
            beq r1, r0, base
            add r2, r2, r1
            addi r1, r1, -1
            call rec
        base:
            ret
        """, image, initial_sp=sp)
        assert core.arch_regs[int_reg(2)] == 15

    def test_overwritten_return_address_is_followed(self):
        """Architectural ret follows the stack, even though the RSB
        predicted otherwise — the SpectreRSB divergence (Fig. 4b)."""
        image, sp = self.make_image()
        program = assemble("""
            call fn
            li r2, 2        # skipped: fn overwrites its return address
            halt
        fn:
            li r1, @hijack_pc
            store r1, sp, 0
            ret
        hijack:
            li r3, 3
            halt
        """, symbols={"hijack_pc": 6 * 4})
        core = Core(program, memory_image=image, initial_sp=sp,
                    config=CoreConfig.small(), warm_icache=True)
        core.run(max_cycles=100_000)
        assert core.halted
        assert core.arch_regs[int_reg(2)] == 0
        assert core.arch_regs[int_reg(3)] == 3
        assert core.branch_unit.stats.rsb_mispredicts >= 1


def test_squashed_completion_count_stays_exact():
    """``_squashed_completions`` counts the squashed records left in
    the completion heap, also when a misprediction resolved inside
    ``_complete`` compacts the heap into a new list mid-loop."""
    from repro.attack.gadgets import build_attack
    from repro.runahead.original import OriginalRunahead

    attack = build_attack("pht")
    core = Core(attack.program, memory_image=attack.image,
                config=CoreConfig.paper(), runahead=OriginalRunahead(),
                initial_sp=attack.initial_sp, warm_icache=True)
    compactions = 0
    compact = core._compact_completions

    def counting_compact():
        nonlocal compactions
        before = core._completions
        compact()
        compactions += core._completions is not before
    core._compact_completions = counting_compact
    while not core.halted and core.cycle < 200_000:
        core.step()
        dead = sum(1 for record in core._completions if record[2].squashed)
        assert core._squashed_completions == dead, core.cycle
    assert core.halted and compactions
