"""Property test: generated gadgets obey the cross-check contract.

Small-N in the tier-1 suite (the full 200-seed sweep is the
``verify_cross_check`` preset); the exercised seed range is printed so
a CI failure names exactly which programs ran.  On failure the shim
shrinks the seed to a minimal knob assignment and dumps the program as
``tests/verify/artifacts/minimal-*.isa`` — the assertion message
carries the path.
"""

from __future__ import annotations

import pytest

from tests.verify import gen as shim
from repro.verify.gen import _ARRAY1_WORDS, FAMILIES, gen_target, generate_case

PROPERTY_SEEDS = range(0, 8)
PROPERTY_DEFENSES = ("original", "branch-skip")


@pytest.mark.slow
def test_generated_gadgets_satisfy_the_cross_check_contract(capsys):
    with capsys.disabled():
        print(f"\n[gen property] seeds={list(PROPERTY_SEEDS)} "
              f"defenses={PROPERTY_DEFENSES}", flush=True)
    failures = shim.run_property(PROPERTY_SEEDS,
                                 defenses=PROPERTY_DEFENSES)
    assert not failures, \
        "cross-check disagreement on generated gadget(s):\n" + \
        "\n".join(str(f) for f in failures)


def test_generation_is_deterministic():
    a = generate_case(41)
    b = generate_case(41)
    assert a.name == b.name and a.notes == b.notes
    assert a.secret_value == b.secret_value
    assert list(a.program.disassemble()) == list(b.program.disassemble())


def test_gen_target_name_roundtrip():
    for family in FAMILIES:
        case = gen_target(f"gen:{family}:5")
        assert case.name == f"gen:{family}:5"
    with pytest.raises(KeyError, match="bad generated-target name"):
        gen_target("gen:spec")
    with pytest.raises(KeyError, match="unknown generator family"):
        gen_target("gen:meltdown:1")


def test_overrides_force_drawn_knobs():
    """Every knob is drawn-unless-overridden — the shrinker's contract."""
    leaky = generate_case(3, family="spec", touch_secret=True,
                          malicious=True)
    assert leaky.expect_leak
    defused = generate_case(3, family="spec", touch_secret=True,
                            malicious=False)
    assert not defused.expect_leak
    assert "malicious=False" in defused.notes


def test_shrinker_minimizes_while_preserving_the_predicate():
    """Shrink against an artificial predicate (the case leaks): knobs
    irrelevant to it get forced simple, load-bearing knobs survive."""
    seed = next(s for s in range(64)
                if generate_case(s, family="spec").expect_leak
                and "padding=0" not in generate_case(s,
                                                     family="spec").notes)
    overrides, minimal = shim.shrink(
        seed, "spec", lambda case: case.expect_leak)
    # padding and hops don't affect expect_leak -> forced simple.
    assert overrides.get("padding") == 0
    assert overrides.get("hops") == 0
    # touch_secret/malicious are what makes it leak -> not overridden.
    assert "touch_secret" not in overrides
    assert "malicious" not in overrides
    assert minimal.expect_leak and "padding=0" in minimal.notes


def test_artifact_dump_is_reproducible(tmp_path, monkeypatch):
    monkeypatch.setattr(shim, "ARTIFACT_DIR", tmp_path)
    case = generate_case(3, family="stale", plant_secret=True, hops=0)
    path = shim.dump_artifact(case, 3, {"plant_secret": True, "hops": 0},
                              ["example disagreement"])
    text = path.read_text()
    assert "generate_case(3" in text and "example disagreement" in text
    # The dumped body is the program's own disassembly.
    assert "\n".join(case.program.disassemble()) in text


def test_generated_benign_values_never_alias_the_secret():
    """Footprint-oracle soundness: values the architectural path may
    transmit through the probe array must differ from the secret, or
    the oracle could not tell a benign transmission from a leak."""
    for seed in range(24):
        case = generate_case(seed)
        family = case.name.split(":")[1]
        words = case.image.initial_words()
        if family == "spec":
            array1 = case.image.address_of("array1")
            benign = [words[array1 + 8 * i]
                      for i in range(_ARRAY1_WORDS)]
        elif family == "stale":
            benign = [words[case.image.address_of("safe_word")]]
        else:
            continue   # straight never derives a probe address from data
        assert case.secret_value not in benign, \
            f"{case.name}: benign word aliases the secret value"
