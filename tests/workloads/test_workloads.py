"""Workload generator tests (the Fig. 7 kernel set)."""

import pytest

from repro.harness.aggregate import geometric_mean_speedup
from repro.runahead import NoRunahead, OriginalRunahead
from repro.workloads import build_mcf_like, build_zeusmp_like, spec_like_suite

#: Paper order (Fig. 7 x-axis): zeusm, wrf, bwave, lbm, mcf, Gems.
FIG7_ORDER = ("zeusmp", "wrf", "bwaves", "lbm", "mcf", "gems")


@pytest.fixture(scope="module")
def suite():
    return spec_like_suite()


def runahead_speedup(workload):
    """IPC with original runahead over IPC without it."""
    base = workload.run(runahead=NoRunahead()).stats.ipc
    return workload.run(runahead=OriginalRunahead()).stats.ipc / base


class TestSuiteStructure:
    def test_all_six_benchmarks_present(self, suite):
        assert tuple(suite) == FIG7_ORDER

    def test_memory_bound_classification(self, suite):
        assert not suite["zeusmp"].memory_bound
        assert not suite["wrf"].memory_bound
        for name in ("bwaves", "lbm", "mcf", "gems"):
            assert suite[name].memory_bound

    def test_builders_are_reproducible(self, suite):
        program_a, image_a, _ = suite["mcf"].build()
        program_b, image_b, _ = suite["mcf"].build()
        assert len(program_a) == len(program_b)
        assert image_a.initial_words() == image_b.initial_words()


class TestKernelsRun:
    @pytest.mark.parametrize("name", FIG7_ORDER)
    def test_kernel_halts_on_both_machines(self, suite, name):
        for controller in (NoRunahead(), OriginalRunahead()):
            core = suite[name].run(runahead=controller)
            assert core.halted
            assert core.stats.committed > 500

    def test_mcf_chain_is_a_permutation(self):
        """Every node is visited exactly once per lap of the chase."""
        workload = build_mcf_like(nodes=32)
        program, image, _ = workload.build()
        base = image.address_of("nodes")
        seen = set()
        addr = base
        for _ in range(32):
            assert addr not in seen
            seen.add(addr)
            addr = image.initial_words()[addr]
        assert addr == base   # closed cycle
        assert len(seen) == 32


class TestRunaheadBehaviour:
    def test_memory_bound_kernels_gain(self, suite):
        for name in ("lbm", "gems"):
            speedup = runahead_speedup(suite[name])
            assert speedup > 1.05, f"{name}: {speedup:.3f}"

    def test_compute_bound_kernel_gains_little(self, suite):
        speedup = runahead_speedup(suite["zeusmp"])
        assert 0.95 < speedup < 1.12

    def test_runahead_triggers_on_memory_bound(self, suite):
        core = suite["gems"].run(runahead=OriginalRunahead())
        assert core.stats.runahead_episodes >= 1
        assert core.stats.runahead_prefetches >= 10

    def test_geomean_helper(self):
        rows = [{"speedup": 1.0}, {"speedup": 4.0}]
        assert geometric_mean_speedup(rows) == pytest.approx(2.0)
        assert geometric_mean_speedup([]) == 0.0

    def test_architectural_result_stable_under_runahead(self, suite):
        """The mcf accumulator must be identical with and without
        runahead (workload-level differential check)."""
        base = suite["mcf"].run(runahead=NoRunahead())
        ra = suite["mcf"].run(runahead=OriginalRunahead())
        reg = 5   # r5 accumulates costs
        assert base.arch_regs[reg] == ra.arch_regs[reg]
        assert base.arch_regs[reg] != 0
