"""``Receiver.measure``: one read-only hierarchy walk serves every trial.

The per-trial walk it replaced is kept below as the reference: each
trial walked every monitored line again (unless its draw overrode the
line) and combined the lines of an index.  ``measure(now, draws)`` must
equal it vector for vector, and a channel run must walk each distinct
monitored line exactly once however many trials it decodes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack.gadgets import build_attack
from repro.channel import (NoiseDraw, NoiseModel, PrimeProbeReceiver,
                           ProbeLayout, ProbeVector, Receiver, SplitMix64,
                           eviction_set, make_receiver)
from repro.channel.session import run_channel_attack
from repro.harness.registry import make_controller
from repro.memory.hierarchy import (HierarchyConfig, MemoryHierarchy,
                                    SharedHierarchy)
from repro.pipeline.config import CoreConfig
from tests.sim import warm

RECEIVER_NAMES = ("flush-reload", "evict-reload", "prime-probe")
CONFIGS = {"paper": HierarchyConfig.paper, "small": HierarchyConfig.small}


def reference_measure(receiver, now, draw, trial):
    """The old per-trial walk: probe every line not overridden by ``draw``."""
    def line_latency(line):
        if line in draw.evicted:
            return receiver.miss_latency
        if line in draw.polluted:
            return receiver.hit_latency
        return receiver.hierarchy.probe_latency(line, now)[0]

    layout = receiver.layout
    latencies = []
    for index in range(layout.entries):
        if isinstance(receiver, PrimeProbeReceiver):
            latency = max(line_latency(line) for line in eviction_set(
                receiver.hierarchy.l3.config, layout.line(index), salt=7))
        else:
            latency = line_latency(layout.line(index))
        jitter = draw.jitters[index] if draw.jitters else 0
        latencies.append(max(1, latency + jitter))
    return ProbeVector(latencies=tuple(latencies),
                       signal_low=receiver.signal_low, trial=trial,
                       receiver=receiver.name)


def build_channel(name, config, cross_core, victim_lines, in_flight):
    """A prepared receiver plus a victim footprint.

    ``victim_lines`` are warmed into the victim's caches; ``in_flight``
    probe entries are real misses whose fills complete at cycle 242.
    """
    if cross_core:
        shared = SharedHierarchy(config)
        victim, attacker = shared.add_core(), shared.add_core()
    else:
        victim = attacker = MemoryHierarchy(config)
    layout = ProbeLayout(base=1 << 20, entries=16, stride=512)
    receiver = make_receiver(name, layout, attacker)
    if cross_core:
        receiver.cross_core()
    receiver.prepare()
    for index in victim_lines:
        warm(victim, layout.line(index))
    for index in in_flight:
        victim.access_data(layout.line(index), 0)
    return receiver


@st.composite
def noise_models(draw):
    evict = draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]))
    pollute = draw(st.sampled_from(
        [rate for rate in (0.0, 0.05, 0.3, 0.5, 1.0)
         if evict + rate <= 1.0]))
    jitter = draw(st.sampled_from([0, 3, 50, 600]))
    return NoiseModel(jitter=jitter, evict_rate=evict, pollute_rate=pollute)


class TestOneWalkEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(RECEIVER_NAMES),
           config=st.sampled_from(sorted(CONFIGS)),
           cross_core=st.booleans(),
           victim_lines=st.sets(st.integers(0, 15), max_size=3),
           in_flight=st.sets(st.integers(0, 15), max_size=2),
           now=st.sampled_from([0, 100, 241, 242, 400]),
           model=noise_models(),
           trials=st.integers(1, 4),
           seed=st.integers(0, 1 << 32))
    def test_matches_per_trial_walk(self, name, config, cross_core,
                                    victim_lines, in_flight, now, model,
                                    trials, seed):
        receiver = build_channel(name, CONFIGS[config](), cross_core,
                                 victim_lines, in_flight)
        draws = [model.draw(SplitMix64(seed + trial),
                            receiver.noise_lines(), receiver.layout.entries)
                 for trial in range(trials)]
        vectors = receiver.measure(now, draws)
        assert vectors == [reference_measure(receiver, now, draw, trial)
                           for trial, draw in enumerate(draws)]

    def test_small_geometry_shares_eviction_lines(self):
        """The case the line-to-every-index map exists for: two probe
        entries in one L3 set time the same eviction lines, so evicting
        one line must slow both indices."""
        receiver = build_channel("prime-probe", HierarchyConfig.small(),
                                 False, (), ())
        owners = {}
        for index, lines in enumerate(receiver.index_lines):
            for line in lines:
                owners.setdefault(line, []).append(index)
        shared = [line for line, indices in owners.items()
                  if len(indices) > 1]
        assert shared
        draw = NoiseDraw(evicted=frozenset(shared[:1]),
                         polluted=frozenset(), jitters=())
        vector, = receiver.measure(0, (draw,))
        assert vector == reference_measure(receiver, 0, draw, 0)
        for index in owners[shared[0]]:
            assert vector.latencies[index] == receiver.miss_latency

    def test_no_state_between_calls(self):
        """The walk is redone per call: a change to the hierarchy between
        two ``measure(0)`` calls is seen by the second one."""
        receiver = build_channel("flush-reload", HierarchyConfig.paper(),
                                 False, (), ())
        before, = receiver.measure(0)
        warm(receiver.hierarchy, receiver.layout.line(5))
        after, = receiver.measure(0)
        assert before.latencies[5] == receiver.miss_latency
        assert after.latencies[5] == receiver.hit_latency


class _Counter:
    """Counts calls to one method, delegating to the original."""

    def __init__(self, monkeypatch, owner, attr):
        self.calls = []
        original = getattr(owner, attr)

        def counted(obj, *args, **kwargs):
            self.calls.append(args)
            return original(obj, *args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)


class TestWorkCounts:
    @pytest.mark.parametrize("name", ["flush-reload", "prime-probe"])
    def test_nine_trials_walk_each_line_once(self, monkeypatch, name):
        probes = _Counter(monkeypatch, MemoryHierarchy, "probe_latency")
        measures = _Counter(monkeypatch, Receiver, "measure")
        draws = _Counter(monkeypatch, NoiseModel, "draw")
        attack = build_attack("pht", secret_value=83, external_probe=True)
        outcome = run_channel_attack(
            attack, make_controller("original"), CoreConfig.paper(), name,
            noise={"jitter": 4, "evict_rate": 0.05, "pollute_rate": 0.05},
            trials=9, seed=3)
        assert outcome.trials == 9
        assert len(measures.calls) == 1
        assert len(draws.calls) == 9
        (lines, _), = {(tuple(call[1]), call[2]) for call in draws.calls}
        walked = [call[0] for call in probes.calls]
        assert sorted(walked) == sorted(set(lines))
        expected = 256 if name == "flush-reload" else 256 * 8
        assert len(walked) == expected
