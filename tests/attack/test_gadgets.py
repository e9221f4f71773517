"""Structural tests of the attack-program builders (no simulation)."""

import pytest

from repro.attack import (build_attack, build_btb_attack, build_pht_attack,
                          build_rsb_flush_attack, build_rsb_overwrite_attack)
from repro.isa import Opcode


class TestCommonLayout:
    @pytest.mark.parametrize("variant", ["pht", "btb", "rsb-overwrite",
                                         "rsb-flush"])
    def test_builder_produces_consistent_bundle(self, variant):
        attack = build_attack(variant)
        assert attack.variant == variant
        assert attack.program.fetch(0) is not None
        # The secret sits out of array1's bounds at the malicious index.
        offset = attack.secret_addr - attack.array1_addr
        assert offset == attack.malicious_index * 8
        assert attack.image.initial_words()[attack.secret_addr] == \
            attack.secret_value

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_attack("meltdown")

    def test_probe_entries_must_be_power_of_two(self):
        with pytest.raises(AssertionError):
            build_pht_attack(probe_entries=100)

    @pytest.mark.parametrize("variant", ["pht", "btb", "rsb-overwrite",
                                         "rsb-flush"])
    def test_program_contains_attack_phases(self, variant):
        attack = build_attack(variant)
        opcodes = [instr.opcode for instr in attack.program]
        assert Opcode.CLFLUSH in opcodes        # flush phase
        assert Opcode.RDTSC in opcodes          # probe timing
        assert Opcode.FENCE in opcodes          # serialization
        assert Opcode.HALT in opcodes

    def test_expected_probe_index_equals_secret(self):
        """The transmit load indexes the probe array by the secret word."""
        attack = build_pht_attack(secret_value=123)
        assert attack.secret_value == 123
        assert attack.image.initial_words()[attack.secret_addr] == 123


class TestPhtSpecifics:
    def test_nop_padding_inserted(self):
        plain = build_pht_attack(nop_padding=0)
        padded = build_pht_attack(nop_padding=300)
        assert len(padded.program) == len(plain.program) + 300
        assert padded.notes == "nop_padding=300"

    def test_trigger_word_holds_array_size(self):
        attack = build_pht_attack(array1_words=16)
        trigger = attack.image.address_of("trigger_d")
        assert attack.image.initial_words()[trigger] == 16

    def test_touch_secret_flag(self):
        touched = build_pht_attack(touch_secret=True)
        untouched = build_pht_attack(touch_secret=False)
        assert len(touched.program) > len(untouched.program)


class TestBtbSpecifics:
    def test_gadget_and_benign_addresses_recorded(self):
        attack = build_btb_attack()
        gadget = attack.image.symbols["victim_gadget_addr"]
        benign = attack.image.symbols["victim_benign_addr"]
        assert gadget == attack.program.labels["victim_gadget"]
        assert benign == attack.program.labels["victim_benign"]
        assert gadget != benign

    def test_indirect_jump_present(self):
        attack = build_btb_attack()
        assert any(i.opcode is Opcode.JR for i in attack.program)


class TestRsbSpecifics:
    def test_overwrite_variant_stores_to_stack(self):
        attack = build_rsb_overwrite_attack()
        labels = attack.program.labels
        assert "rsb_gadget" in labels
        assert "benign_landing" in labels
        # The gadget sits at the call-site fall-through, before the
        # architectural landing point.
        assert labels["rsb_gadget"] < labels["benign_landing"]

    def test_flush_variant_has_trampoline_desync(self):
        attack = build_rsb_flush_attack()
        labels = attack.program.labels
        assert "tramp" in labels
        assert "victim_ret" in labels
        assert any(i.opcode is Opcode.RET for i in attack.program)


class TestLatencyExtraction:
    def test_read_latencies_pulls_results_array(self):
        from repro import Core, CoreConfig

        attack = build_pht_attack(probe_entries=256)

        class FakeMemory:
            def read_word(self, addr):
                return (addr - attack.results_addr) // 8

        class FakeCore:
            memory = FakeMemory()

        latencies = attack.read_latencies(FakeCore())
        assert latencies == list(range(256))


@pytest.mark.parametrize("variant", ["pht", "btb", "rsb-overwrite",
                                     "rsb-flush"])
def test_each_build_assembles_once(variant, monkeypatch):
    """Code addresses stored as data come from the label pass alone."""
    from repro.attack import gadgets

    calls = []
    real = gadgets.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gadgets, "assemble", counting)
    attack = build_attack(variant)
    assert len(calls) == 1
    for name in ("victim_gadget_addr", "victim_benign_addr",
                 "benign_landing_addr"):
        if name in attack.image.symbols:
            label = name[:-len("_addr")]
            assert attack.image.symbols[name] == \
                attack.program.labels[label]
