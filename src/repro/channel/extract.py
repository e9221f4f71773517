"""Multi-byte secret extraction over the covert channel.

The Fig. 9 PoC leaks one planted value.  A real attacker loops the
transmit gadget over a secret *buffer* and reads it out byte by byte;
this module reproduces that end-to-end: per byte it builds the attack
program with that byte planted, runs it once, decodes ``trials`` noisy
receiver measurements, and finally reports recovered bytes, success
rate, trials-to-recover and the effective channel bandwidth derived from
simulated cycle counts.

Everything is deterministic under a fixed ``seed`` — per-byte noise
streams derive from ``(seed, byte index, trial)`` — so extraction
results are safe to cache and to shard across harness workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from ..attack.gadgets import build_attack
from ..multicore.scenario import Topology
from ..pipeline.config import CoreConfig
from ..runahead.base import RunaheadController
from .decode import ChannelDecode, decode_trials
from .noise import NoiseModel, derive_seed
from .receiver import receiver_class
from .session import (DEFAULT_MAX_CYCLES, calibrate_receiver,
                      run_channel_attack)

#: Nominal clock used to express simulated cycles as wall time; the
#: paper's Table-1 machine is a contemporary out-of-order core.
DEFAULT_CLOCK_HZ = 2_000_000_000


def render_byte_text(values: Sequence[Optional[int]],
                     placeholder: str = "?") -> str:
    """Render (possibly partially) recovered bytes as printable text.

    The single renderer behind ``ExtractionResult.recovered_text``, the
    preset reports and the CLI: ``placeholder`` for undecoded bytes,
    printable ASCII verbatim, ``\\xNN`` escapes otherwise.
    """
    out = []
    for value in values:
        if value is None:
            out.append(placeholder)
        elif 32 <= value < 127:
            out.append(chr(value))
        else:
            out.append(f"\\x{value:02x}")
    return "".join(out)


def _as_values(secret: Union[bytes, str, Sequence[int]]) -> List[int]:
    if isinstance(secret, str):
        secret = secret.encode("ascii")
    values = list(secret)
    if not values:
        raise ValueError("secret must not be empty")
    for value in values:
        if not isinstance(value, int) or not 0 <= value <= 255:
            raise ValueError(f"secret values must be bytes (0..255), "
                             f"got {value!r}")
    return values


def _runahead_factory(runahead) -> Callable[[], RunaheadController]:
    """Normalize the ``runahead`` argument to a zero-arg factory.

    Controllers hold per-run state (stride trainers, SL caches), so each
    simulated run needs a fresh instance: accept a factory, a controller
    class, or ``None`` (paper default: original runahead).
    """
    if runahead is None:
        from ..runahead.original import OriginalRunahead
        return OriginalRunahead
    if isinstance(runahead, type):
        return runahead
    if callable(runahead):
        return runahead
    raise TypeError("runahead must be a controller class or a zero-arg "
                    f"factory, got {runahead!r} (instances cannot be "
                    "reused across the runs of an extraction)")


@dataclass
class ByteResult:
    """Decoding outcome for one secret byte."""

    index: int
    planted: int
    recovered: Optional[int]
    confidence: float
    trials_to_recover: Optional[int]   # shortest prefix reaching the answer
    cycles: int                        # victim run + receiver probe cycles
    decode: ChannelDecode = field(repr=False, default=None)

    @property
    def correct(self) -> bool:
        return self.recovered == self.planted


@dataclass
class ExtractionResult:
    """A full multi-byte extraction run, with channel metrics."""

    secret: List[int]
    recovered: List[Optional[int]]
    bytes_: List[ByteResult]
    receiver: str
    trials: int
    noise: Optional[dict]
    total_cycles: int                  # attack + calibration cycles
    calibration_cycles: int
    clock_hz: int = DEFAULT_CLOCK_HZ
    #: Core/co-runner placement (see :class:`repro.multicore.scenario.
    #: Topology`); None on the single-core path.
    topology: Optional[dict] = None

    @property
    def success_rate(self) -> float:
        correct = sum(1 for b in self.bytes_ if b.correct)
        return correct / len(self.bytes_)

    @property
    def bits_attempted(self) -> int:
        return 8 * len(self.secret)

    @property
    def bits_recovered(self) -> int:
        return 8 * sum(1 for b in self.bytes_ if b.correct)

    @property
    def bits_per_kcycle(self) -> float:
        """Effective goodput: correctly recovered bits per 1000 cycles."""
        if not self.total_cycles:
            return 0.0
        return 1000.0 * self.bits_recovered / self.total_cycles

    def bandwidth_bits_per_s(self, clock_hz: Optional[int] = None) -> float:
        """Effective bandwidth in bits/s at a nominal core clock."""
        if not self.total_cycles:
            return 0.0
        clock = clock_hz or self.clock_hz
        return self.bits_recovered * clock / self.total_cycles

    def recovered_text(self, placeholder: str = "?") -> str:
        """Recovered bytes as printable text (placeholder where unknown)."""
        return render_byte_text(self.recovered, placeholder)

    def describe(self) -> str:
        return (f"{self.receiver} x{self.trials} trial(s): recovered "
                f"{sum(1 for b in self.bytes_ if b.correct)}"
                f"/{len(self.bytes_)} bytes "
                f"({self.recovered_text()!r}), "
                f"{self.bits_per_kcycle:.3f} bits/kcycle "
                f"({self.bandwidth_bits_per_s():,.0f} bits/s @ "
                f"{self.clock_hz / 1e9:.1f} GHz)")

    def to_dict(self) -> dict:
        payload = {
            "secret": list(self.secret),
            "recovered": list(self.recovered),
            "receiver": self.receiver,
            "trials": self.trials,
            "noise": self.noise,
            "success_rate": self.success_rate,
            "bits_attempted": self.bits_attempted,
            "bits_recovered": self.bits_recovered,
            "bits_per_kcycle": self.bits_per_kcycle,
            "bandwidth_bits_per_s": self.bandwidth_bits_per_s(),
            "clock_hz": self.clock_hz,
            "total_cycles": self.total_cycles,
            "calibration_cycles": self.calibration_cycles,
            "confidences": [b.confidence for b in self.bytes_],
            "trials_to_recover": [b.trials_to_recover for b in self.bytes_],
            "cycles_per_byte": [b.cycles for b in self.bytes_],
        }
        if self.topology is not None:
            payload["topology"] = self.topology
        return payload


def _trials_to_recover(decode: ChannelDecode) -> Optional[int]:
    """Shortest trial prefix whose decode equals the final answer."""
    if decode.recovered is None:
        return None
    for prefix in range(1, decode.trials + 1):
        partial = decode_trials(decode.vectors[:prefix],
                                ignore_indices=decode.ignore_indices)
        if partial.recovered == decode.recovered:
            return prefix
    return decode.trials


def extract_secret(secret: Union[bytes, str, Sequence[int]],
                   variant: str = "pht",
                   receiver: str = "flush-reload",
                   noise=None, trials: int = 1,
                   runahead=None, config: Optional[CoreConfig] = None,
                   seed: int = 0,
                   max_cycles: int = DEFAULT_MAX_CYCLES,
                   clock_hz: int = DEFAULT_CLOCK_HZ,
                   cores: int = 1, corunner: Optional[str] = None,
                   smt: bool = False, corunner_runahead: str = "none",
                   **gadget_kwargs) -> ExtractionResult:
    """Extract a secret buffer through a noisy covert-channel receiver.

    Per byte, one external-probe attack program is built with that byte
    planted and simulated once; ``trials`` receiver measurements (with
    per-trial noise) are decoded together.  A prime+probe receiver first
    runs one benign-trigger calibration pass, shared by every byte.

    ``cores``/``corunner``/``smt``/``corunner_runahead`` describe a
    multi-core placement (:class:`~repro.multicore.scenario.Topology`):
    with ``cores >= 2`` the receiver measures from another core through
    the shared L3, and a ``corunner`` workload runs as a real
    interfering instruction stream (on dedicated cores, or as an SMT
    thread of the victim's core with ``smt=True``).  The defaults are
    exactly the PR 3 single-core path.
    """
    values = _as_values(secret)
    model = NoiseModel.from_spec(noise)
    cls = receiver_class(receiver)
    make_runahead = _runahead_factory(runahead)
    config = config or CoreConfig.paper()
    topology = Topology.from_params(
        {"cores": cores, "corunner": corunner, "smt": smt,
         "corunner_runahead": corunner_runahead})
    build_kwargs = dict(gadget_kwargs)
    build_kwargs.setdefault("external_probe", True)
    build_kwargs.setdefault("flush_probe_array", cls.uses_clflush)

    calibration_ignore: tuple = ()
    calibration_cycles = 0
    if cls.needs_calibration:
        benign = build_attack(variant, secret_value=values[0],
                              trigger_index=1, **build_kwargs)
        calibration_ignore, calibration_cycles = calibrate_receiver(
            benign, make_runahead(), config, receiver, topology, max_cycles)

    results: List[ByteResult] = []
    total_cycles = calibration_cycles
    for index, value in enumerate(values):
        attack = build_attack(variant, secret_value=value, **build_kwargs)
        outcome = run_channel_attack(
            attack, make_runahead(), config, receiver,
            noise=model, trials=trials,
            seed=derive_seed("extract", seed, index),
            max_cycles=max_cycles, extra_ignore=calibration_ignore,
            topology=topology)
        byte_cycles = outcome.cycles + outcome.measure_cycles
        total_cycles += byte_cycles
        results.append(ByteResult(
            index=index, planted=value, recovered=outcome.recovered,
            confidence=outcome.confidence,
            trials_to_recover=_trials_to_recover(outcome.decode),
            cycles=byte_cycles, decode=outcome.decode))

    return ExtractionResult(
        secret=values, recovered=[b.recovered for b in results],
        bytes_=results, receiver=receiver, trials=trials,
        noise=model.to_spec() if model is not None else None,
        total_cycles=total_cycles, calibration_cycles=calibration_cycles,
        clock_hz=clock_hz,
        topology=topology.to_spec() if topology is not None else None)
