"""Channel-attack orchestration: one simulated run, many receiver trials.

The simulator is deterministic, so the expensive part of a noisy-channel
experiment — the cycle-level run that plants the transmit footprint — is
executed **once**; the receiver then walks the finished hierarchy once
(read-only) and derives every trial from that walk with an
independently seeded noise draw.
That keeps a trials-vs-success-rate sweep linear in secret bytes rather
than in ``bytes x trials``, and makes the whole experiment a pure
function of ``(attack spec, receiver, noise spec, seed, topology)``.

The flow per transmitted value:

1. :func:`run_victim` builds the victim and its receiver — one
   :class:`~repro.pipeline.core.Core`, or with a multi-core topology
   the cores of a shared-L3 system — calls ``receiver.prepare()`` and
   runs to halt;
2. for prime+probe, the caller first runs :func:`calibrate_receiver`
   (same program with a benign trigger index, same placement) to learn
   the deterministic baseline of self-disturbed sets, which decoding
   then ignores;
3. draw ``trials`` noise samples (each seeded from
   :func:`~repro.channel.noise.derive_seed`), measure all of them from
   one read-only walk of the hierarchy, decode with
   :func:`~repro.channel.decode.decode_trials`.

Public contract
---------------
* :func:`run_victim` is the only code that builds and runs a victim:
  channel runs, calibration runs and ``SpecRunAttack``'s in-program
  probe all go through it, so the single-core vs multi-core choice is
  made in one place.
* :func:`run_channel_attack` is the single entry point for one-value
  channel runs; :func:`repro.channel.extract.extract_secret` loops it
  per byte and is the one receiver-measured attack (the harness
  ``extract`` trial kind and ``repro attack`` call it) — nothing else
  constructs receivers against a live run.  A single-core
  ``topology`` (or none) is the one-core path.
* :class:`ChannelOutcome` is what one run hands back to
  ``extract_secret``; the persisted, cached payload is
  :meth:`~repro.channel.extract.ExtractionResult.to_dict`.
* :func:`channel_ignore_set` and :func:`measure_and_decode` define the
  receiver-validation and ``derive_seed("channel", seed, trial)``
  noise-seeding contracts; results stay comparable and cacheable only
  while every placement measures through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..multicore.scenario import Topology, build_attack_system
from ..pipeline.config import CoreConfig
from ..pipeline.core import Core
from .decode import ChannelDecode, decode_trials, signal_indices
from .noise import NO_NOISE, NoiseModel, SplitMix64, derive_seed
from .receiver import ProbeLayout, make_receiver, receiver_class

DEFAULT_MAX_CYCLES = 3_000_000


@dataclass
class ChannelOutcome:
    """Everything one channel run produced."""

    receiver: str
    trials: int
    noise: Optional[dict]             # the noise spec actually applied
    decode: ChannelDecode
    ignore_indices: Tuple[int, ...]
    stats: object                     # CoreStats of the main run
    cycles: int                       # cycles of the main run
    #: Cycles the receiver itself spends probing: the serial sum of all
    #: measured latencies across trials (a real receiver's reload/probe
    #: loop).  Charged to the channel-bandwidth denominator.
    measure_cycles: int = 0

    @property
    def recovered(self) -> Optional[int]:
        return self.decode.recovered

    @property
    def confidence(self) -> float:
        return self.decode.confidence


def channel_ignore_set(receiver_cls, attack, extra_ignore=()) -> set:
    """Probe indices excluded from decoding for this receiver/attack.

    Validates the attack is an external-probe build and, for receivers
    without a working ``clflush``, excludes the entries the attacker's
    own training phase warmed.
    """
    if not attack.external_probe:
        raise ValueError(
            "channel receivers need an external-probe attack program "
            "(build with external_probe=True)")
    ignore = set(extra_ignore)
    if not receiver_cls.uses_clflush:
        # No in-program flush between training and trigger: entries the
        # attacker's own training warmed stay hot and must not decode.
        ignore.update(attack.warmed_probe_indices)
    return ignore


def measure_and_decode(receiver, now, model, trials, seed, ignore):
    """Measure ``trials`` noisy probe vectors and decode them together.

    Per-trial noise streams derive from ``derive_seed("channel", seed,
    trial)``, so one seed reproduces the outcome at any worker count.
    All draws are made first and measured by one ``receiver.measure``
    call, which walks the hierarchy once for every trial.
    Returns ``(decode, measure_cycles)``.
    """
    if model is not None:
        lines = receiver.noise_lines()
        n_indices = receiver.layout.entries
        draws = [model.draw(SplitMix64(derive_seed("channel", seed, trial)),
                            lines, n_indices)
                 for trial in range(trials)]
    else:
        draws = [NO_NOISE] * trials
    vectors = receiver.measure(now, draws)
    decoded = decode_trials(vectors, ignore_indices=ignore)
    measure_cycles = sum(sum(v.latencies) for v in vectors)
    return decoded, measure_cycles


def run_victim(attack, runahead, config: CoreConfig, max_cycles: int,
               receiver_name: Optional[str], topology):
    """Build the victim and its receiver, prepare the channel, run to halt.

    The one place a victim run is built and run; returns ``(victim core,
    receiver)`` (``receiver`` is ``None`` when ``receiver_name`` is;
    only the single-core in-program probe path runs without one).

    * ``topology is None``: one warm-icache :class:`~repro.pipeline.
      core.Core`; the receiver measures that core's own hierarchy.
    * a multi-core :class:`~repro.multicore.scenario.Topology`:
      :func:`~repro.multicore.scenario.build_attack_system` assembles
      victim, co-runners and the attacker's view of the shared L3, and
      :class:`~repro.multicore.system.MultiCoreSystem` runs them in
      lockstep until the victim halts.

    Either way the cores are built (and code regions warmed) before
    ``receiver.prepare()`` resets the channel.
    """
    if topology is None:
        core = Core(attack.program, memory_image=attack.image,
                    config=config, runahead=runahead,
                    initial_sp=attack.initial_sp, warm_icache=True)
        receiver = None
        if receiver_name is not None:
            receiver = make_receiver(receiver_name,
                                     ProbeLayout.from_attack(attack),
                                     core.hierarchy)
            receiver.prepare()
        core.run(max_cycles=max_cycles)
    else:
        system, receiver = build_attack_system(attack, runahead, config,
                                               receiver_name, topology)
        receiver.prepare()
        core = system.run(max_cycles=max_cycles, primary=0)
    if not core.halted:
        where = f" (topology {topology.to_spec()})" \
            if topology is not None else ""
        raise RuntimeError(
            f"attack program did not finish in {max_cycles} cycles{where}")
    return core, receiver


def calibrate_receiver(calibration_attack, runahead, config: CoreConfig,
                       receiver_name: str, topology,
                       max_cycles: int = DEFAULT_MAX_CYCLES) \
        -> Tuple[Tuple[int, ...], int]:
    """Run the benign-trigger program once and learn the self-noise.

    Returns ``(ignore_indices, cycles)``: the probe indices the
    receiver observes as signal even though no secret was transmitted
    (program data/code sharing sets with probe entries, the training
    phase's own transmit, ...).  Addresses — and therefore this set —
    are identical across secret values, so one calibration serves a
    whole multi-byte extraction.  ``topology`` (``None``, a
    :class:`~repro.multicore.scenario.Topology` or its spec dict)
    calibrates through the same placement as the attack runs: a
    deterministic co-runner's interference is then part of the
    baseline too.
    """
    core, receiver = run_victim(calibration_attack, runahead, config,
                                max_cycles, receiver_name,
                                Topology.from_params(topology))
    vector, = receiver.measure(core.cycle, (NO_NOISE,))
    baseline = signal_indices(vector)
    return tuple(sorted(baseline)), core.stats.cycles


def run_channel_attack(attack, runahead, config: Optional[CoreConfig],
                       receiver: str, noise=None, trials: int = 1,
                       seed: int = 0,
                       max_cycles: int = DEFAULT_MAX_CYCLES,
                       extra_ignore: Iterable[int] = (),
                       topology=None) -> ChannelOutcome:
    """Run one external-probe attack and decode it through a receiver.

    Parameters mirror :class:`~repro.attack.specrun.SpecRunAttack` plus:

    receiver:
        Registry name (``flush-reload`` / ``evict-reload`` /
        ``prime-probe``).
    noise:
        ``None``, a :class:`~repro.channel.noise.NoiseModel`, or its
        JSON spec dict.  Applied per trial with independent draws.
    trials:
        Number of measurement trials decoded together.
    seed:
        Base seed; per-trial noise streams derive from it, so the whole
        outcome is reproducible at any worker count.
    extra_ignore:
        Probe indices excluded from decoding — for a receiver that
        needs calibration, the :func:`calibrate_receiver` baseline
        (callers calibrate once and share it across runs).
    topology:
        Optional :class:`~repro.multicore.scenario.Topology` (or its
        spec dict).  A multi-core arrangement runs victim, attacker and
        co-runners on separate views of a shared L3 (see
        :func:`run_victim`); ``None``/single-core keeps the one-core
        path.
    """
    topology = Topology.from_params(topology)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = config or CoreConfig.paper()
    model = NoiseModel.from_spec(noise)
    ignore = channel_ignore_set(receiver_class(receiver), attack,
                                extra_ignore)
    core, live = run_victim(attack, runahead, config, max_cycles, receiver,
                            topology)
    decoded, measure_cycles = measure_and_decode(
        live, core.cycle, model, trials, seed, ignore)
    return ChannelOutcome(
        receiver=receiver, trials=trials,
        noise=model.to_spec() if model is not None else None,
        decode=decoded, ignore_indices=tuple(sorted(ignore)),
        stats=core.stats, cycles=core.stats.cycles,
        measure_cycles=measure_cycles)
