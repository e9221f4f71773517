"""Declarative experiment specs: :class:`Trial` and :class:`Sweep`.

A *trial* is one self-contained, reproducible measurement — an attack
run, an IPC comparison, a transient-window probe — described entirely by
JSON-serializable parameters (names and numbers, never live objects).
That restriction is what buys everything else in the harness: trials can
be hashed for the result cache, pickled to worker processes, written to
disk, and re-run bit-identically.

A *sweep* is an ordered list of trials, usually built as a cartesian
grid over parameter axes (:meth:`Sweep.grid`).  Order is part of the
spec: executors must return results in trial order no matter how many
workers ran them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Trial kinds understood by :mod:`repro.harness.runner`.
TRIAL_KINDS = ("attack", "ipc", "window", "run", "taint", "extract",
               "verify")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for hashing and byte-comparison."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stable_seed(*parts: str) -> int:
    """Deterministic 32-bit seed derived from string parts.

    Independent of PYTHONHASHSEED, interpreter, and platform — the same
    trial always receives the same seed, which keeps cached results
    valid across processes.
    """
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


class TrialError(RuntimeError):
    """A trial failed; carries the trial label for diagnostics."""


def _load_checker() -> None:
    """Import the static checker a ``verify`` trial runs.  It loads with
    the first verify trial a process builds, so neither a timed trial
    nor a forked campaign worker pays for the import, and a process
    whose sweeps hold no verify trial never loads ``repro.verify``."""
    from ..verify import crosscheck, gen  # noqa: F401


@dataclass
class Trial:
    """One reproducible experiment, described by data only.

    ``params`` must contain only JSON-encodable values (str/int/float/
    bool/None and nested lists/dicts of those).  ``seed`` is derived
    from the params when not given, so identical specs get identical
    seeds regardless of their position in a sweep.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}; "
                             f"expected one of {TRIAL_KINDS}")
        # Fail fast on non-serializable params (live objects etc.).
        try:
            encoded = canonical_json(self.params)
        except TypeError as exc:
            raise TypeError(
                f"trial params must be JSON-serializable: {exc}") from exc
        if self.seed is None:
            self.seed = stable_seed(self.kind, encoded)
        if self.label is None:
            self.label = self._default_label()
        if self.kind == "verify":
            _load_checker()

    def _default_label(self) -> str:
        bits = [self.kind]
        for key in ("workload", "variant", "target", "defense", "runahead",
                    "contender"):
            value = self.params.get(key)
            if value is not None:
                bits.append(str(value))
        return ":".join(bits)

    def canonical(self) -> str:
        """Canonical encoding of everything that defines the outcome."""
        return canonical_json({"kind": self.kind, "params": self.params,
                               "seed": self.seed})

    def spec_hash(self) -> str:
        """Content hash of the trial spec alone (no code version)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params,
                "label": self.label, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Trial":
        return cls(kind=data["kind"], params=dict(data.get("params", {})),
                   label=data.get("label"), seed=data.get("seed"))


@dataclass
class Sweep:
    """An ordered collection of trials with a name.

    The name identifies the experiment (``fig7``, ``ablations``...) in
    reports and on the CLI; it does not enter the cache key — only each
    trial's own spec does, so two sweeps sharing a trial share its
    cached result.
    """

    name: str
    trials: List[Trial] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def add(self, kind: str, **params) -> Trial:
        """Append one trial; returns it for convenience."""
        trial = Trial(kind=kind, params=params)
        self.trials.append(trial)
        return trial

    @classmethod
    def grid(cls, name: str, kind: str, base: Optional[Mapping] = None,
             description: str = "", **axes: Sequence) -> "Sweep":
        """Cartesian product of parameter axes, in axis-given order.

        >>> Sweep.grid("demo", "attack",
        ...            variant=["pht", "btb"], runahead=["original"])
        """
        sweep = cls(name=name, description=description)
        keys = list(axes)
        for combo in itertools.product(*(axes[k] for k in keys)):
            params = dict(base or {})
            params.update(zip(keys, combo))
            sweep.add(kind, **params)
        return sweep

    def signature(self) -> str:
        """Content hash of the ordered trial specs (name excluded).

        Two sweeps with identical trials in identical order share a
        signature regardless of how they were built — this is what a
        campaign manifest pins, so ``resume`` can verify it is
        completing the same experiment it started.
        """
        payload = canonical_json([t.canonical() for t in self.trials])
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "description": self.description,
                "trials": [t.to_dict() for t in self.trials]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        return cls(name=data["name"],
                   description=data.get("description", ""),
                   trials=[Trial.from_dict(t)
                           for t in data.get("trials", [])])
