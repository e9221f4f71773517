"""Unit tests for the pipeline's building blocks: ROB, FU pool, config."""

import pytest

from repro import Core, assemble
from repro.isa import Instruction, Opcode, int_reg
from repro.isa.instructions import FuKind
from repro.pipeline import CoreConfig, FunctionalUnitPool, ReorderBuffer
from repro.pipeline.config import PAPER_FUNCTIONAL_UNITS
from repro.pipeline.rob import RobEntry


def entry(seq, opcode=Opcode.NOP):
    made = RobEntry(seq * 4, Instruction(opcode))
    made.seq = seq
    return made


def filled(capacity, seqs):
    """A ROB holding entries ``seqs`` (the core appends to the deque)."""
    rob = ReorderBuffer(capacity)
    rob._entries.extend(entry(seq) for seq in seqs)
    return rob


class TestReorderBuffer:
    def test_len_and_program_order(self):
        rob = filled(4, range(1, 4))
        assert len(rob) == 3
        assert [e.seq for e in rob] == [1, 2, 3]

    def test_squash_younger_marks_victims(self):
        rob = filled(8, range(1, 6))
        entries = list(rob)
        entries[3].consumers = [entries[4]]
        victims = rob.squash_younger(3)
        assert [v.seq for v in victims] == [5, 4]
        assert all(v.squashed for v in victims)
        assert all(v.consumers is None for v in victims)
        assert len(rob) == 3
        assert [e.seq for e in rob] == [1, 2, 3]
        assert not any(e.squashed for e in rob)

    def test_squash_younger_none_when_youngest(self):
        rob = filled(4, [1])
        assert rob.squash_younger(1) == []
        assert len(rob) == 1

    def test_clear_squashes_everything(self):
        rob = filled(4, range(1, 4))
        first, second, _ = rob
        first.consumers = [second]
        victims = rob.clear()
        assert len(victims) == 3
        assert len(rob) == 0
        assert all(v.squashed for v in victims)
        assert all(v.consumers is None for v in victims)

    def test_entry_role_predicates(self):
        load = RobEntry(0, Instruction(Opcode.LOAD, dest=int_reg(1),
                                       srcs=(int_reg(2),), imm=0))
        store = RobEntry(4, Instruction(
            Opcode.STORE, srcs=(int_reg(1), int_reg(2)), imm=0))
        ret = RobEntry(8, Instruction(Opcode.RET, dest=29, srcs=(29,)))
        call = RobEntry(12, Instruction(Opcode.CALL, dest=29, srcs=(29,),
                                        target=0))
        assert load.is_load and not load.is_store
        assert store.is_store and not store.is_load
        assert ret.is_load and ret.is_branch      # ret pops via a load
        assert call.is_store and call.is_branch   # call pushes via a store


class TestFunctionalUnits:
    def test_per_cycle_slots(self):
        pool = FunctionalUnitPool(PAPER_FUNCTIONAL_UNITS)
        for _ in range(4):
            assert pool.can_issue(FuKind.INT_ALU)
            assert pool.issue(FuKind.INT_ALU) == 1
        assert not pool.can_issue(FuKind.INT_ALU)

    def test_slots_reset_each_cycle(self):
        def cycles(n_divs):
            source = "li r1, 3\nfcvt f1, r1\n" + "".join(
                f"fdiv f{2 + i}, f1, f1\n" for i in range(n_divs)) + "halt\n"
            core = Core(assemble(source), config=CoreConfig.small(),
                        warm_icache=True)
            core.run(max_cycles=10_000)
            assert core.halted
            assert core.fus.counts[FuKind.FP_DIV] == 1    # only one unit
            return core.stats.cycles

        # Independent divides share the one pipelined unit: the core
        # frees its slot every cycle, so each extra one costs a cycle.
        one = cycles(1)
        assert [cycles(n) - one for n in (2, 3, 4)] == [1, 2, 3]

    def test_latencies_match_table1(self):
        pool = FunctionalUnitPool(PAPER_FUNCTIONAL_UNITS)
        assert pool.latencies[FuKind.INT_ALU] == 1
        assert pool.latencies[FuKind.INT_MUL] == 2
        assert pool.latencies[FuKind.INT_DIV] == 5
        assert pool.latencies[FuKind.FP_ADD] == 5
        assert pool.latencies[FuKind.FP_MUL] == 10
        assert pool.latencies[FuKind.FP_DIV] == 15

    def test_overissue_raises(self):
        pool = FunctionalUnitPool(PAPER_FUNCTIONAL_UNITS)
        pool.issue(FuKind.INT_DIV)
        with pytest.raises(RuntimeError):
            pool.issue(FuKind.INT_DIV)


class TestCoreConfig:
    def test_paper_config_is_table1(self):
        config = CoreConfig.paper()
        h = config.hierarchy
        assert config.width == 4
        assert config.frontend_depth == 6
        assert config.predictor == "twolevel"
        assert config.functional_units[FuKind.INT_ALU] == (4, 1)
        assert config.functional_units[FuKind.INT_MUL] == (2, 2)
        assert config.functional_units[FuKind.INT_DIV] == (1, 5)
        assert config.functional_units[FuKind.FP_ADD] == (2, 5)
        assert config.functional_units[FuKind.FP_MUL] == (1, 10)
        assert config.functional_units[FuKind.FP_DIV] == (1, 15)
        assert (config.int_regs, config.fp_regs, config.vec_regs) == \
            (80, 40, 40)
        assert config.rob_size == 256
        assert (config.iq_size, config.lq_size, config.sq_size) == \
            (40, 40, 40)
        assert (h.l1i.size_bytes, h.l1i.assoc, h.l1i.latency) == \
            (16384, 4, 2)
        assert (h.l1d.size_bytes, h.l1d.assoc, h.l1d.latency) == \
            (16384, 4, 2)
        assert (h.l2.size_bytes, h.l2.assoc, h.l2.latency) == (131072, 8, 8)
        assert (h.l3.size_bytes, h.l3.assoc, h.l3.latency) == \
            (4194304, 8, 32)
        assert h.mem_latency == 200

    def test_rename_register_counts(self):
        config = CoreConfig.paper()
        assert config.rename_int == 80 - 32
        assert config.rename_fp == 40 - 16
        assert config.rename_vec == 40 - 8

    def test_rejects_undersized_register_files(self):
        with pytest.raises(ValueError):
            CoreConfig(int_regs=16)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            CoreConfig(width=0)

    def test_with_overrides_returns_new_config(self):
        config = CoreConfig.paper()
        other = config.with_overrides(rob_size=64)
        assert other.rob_size == 64
        assert config.rob_size == 256

    def test_small_config_keeps_mechanisms(self):
        config = CoreConfig.small()
        assert config.rob_size < CoreConfig.paper().rob_size
        assert config.predictor == "twolevel"
        assert config.runahead.cache_entries > 0
