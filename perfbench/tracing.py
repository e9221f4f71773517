"""Timing shims installed at run time around the program's layer entry
points, plus the exact work counters read from returned objects.

Nothing here edits the program.  :meth:`Tracer.install` replaces each
entry point by a wrapper in every ``repro`` module (or class) where a
caller looks the name up, and :meth:`Tracer.uninstall` puts the
originals back.  A wrapper records one span — name, start, end, parent
span and trial (the enclosing ``harness.run_trial`` span) — in memory.

Two modes share the machinery:

* ``spans``: every entry point below is timed; ``Core.run`` and
  ``MultiCoreSystem.run`` also add up ``CoreStats`` and hierarchy
  statistics of the cores they ran.
* ``count``: the counting pass.  Only ``Core.step`` (a call counter)
  and the three ways a core is run (``Core.run``,
  ``MultiCoreSystem.run``, ``measure_window``) are wrapped; they
  attribute steps to controllers and fingerprint each core run's
  starting state to count distinct core runs.

Worker processes forked by a campaign inherit the wrappers.  A forked
tracer starts empty and, each time a trial finishes, appends what it
recorded to ``<spill_dir>/<pid>.jsonl``; :meth:`Tracer.collect` merges
those files into the parent's records.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import pathlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.attack import gadgets, window
from repro.campaign import engine
from repro.channel import decode, noise, receiver
from repro.harness import cache, executor, runner
from repro.isa import assembler
from repro.multicore.system import MultiCoreSystem
from repro.pipeline.core import Core
from repro.runahead.base import RunaheadController
from repro.trace import replay
from repro.verify import crosscheck
from repro.verify import engine as verify_engine
from repro.workloads import base as workloads_base

#: Modules that call an entry point through a name they imported.
#: They are imported before any patching, so that every alias exists
#: when :meth:`Tracer.install` looks for it (a module first imported
#: while patched would keep the wrapper after uninstall).
CALLER_MODULES = ("repro.attack.specrun", "repro.attack.window",
                  "repro.channel.extract", "repro.channel.session",
                  "repro.multicore.scenario", "repro.verify.gen",
                  "repro.verify.targets", "repro.workloads.generators",
                  "repro.isa.builder", "repro.harness.registry",
                  "repro.campaign.worker")
for _name in CALLER_MODULES:
    importlib.import_module(_name)

#: Span name of the per-trial root; its id is the trial id.
TRIAL_SPAN = "harness.run_trial"

#: (span name, owner, attribute).  A class owner patches that class
#: attribute (and every subclass that overrides it); a module owner
#: patches the function under every alias a ``repro`` module holds.
ENTRY_POINTS = (
    ("pipeline.run", Core, "run"),
    ("pipeline.build", Core, "__init__"),
    ("runahead.attach", RunaheadController, "attach"),
    ("multicore.run", MultiCoreSystem, "run"),
    # Window probes step their own core instead of calling Core.run.
    ("pipeline.window", window, "measure_window"),
    ("workloads.materialize", workloads_base.Workload, "materialize"),
    ("trace.lower", replay, "lower_trace"),
    ("attack.build", gadgets, "build_attack"),
    ("isa.assemble", assembler, "assemble"),
    ("channel.build", receiver, "make_receiver"),
    ("channel.noise", noise.NoiseModel, "draw"),
    ("channel.prepare", receiver.Receiver, "prepare"),
    ("channel.measure", receiver.Receiver, "measure"),
    ("channel.decode", decode, "decode_trials"),
    ("verify.check", verify_engine, "check_program"),
    ("verify.cross_check", crosscheck, "cross_check_case"),
    ("harness.plan", executor, "plan_sweep"),
    (TRIAL_SPAN, runner, "run_trial"),
    ("harness.cache_get", cache.CacheBackend, "get"),
    ("harness.cache_put", cache.CacheBackend, "put"),
    ("campaign.run", engine.Campaign, "run"),
)
COUNT_POINTS = ("pipeline.run", "multicore.run", "pipeline.window",
                TRIAL_SPAN)

CORE_STATS = ("cycles", "committed", "fetched", "dispatched", "squashed",
              "branch_mispredicts", "inv_branches", "runahead_episodes",
              "runahead_cycles", "pseudo_retired", "runahead_prefetches")
HIERARCHY_STATS = ("data_accesses", "mem_requests", "merged_requests",
                   "flushes", "prefetch_requests")


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


class Tracer:
    """Records spans and counters while installed (see module doc)."""

    def __init__(self, spill_dir, mode: str = "spans"):
        if mode not in ("spans", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.spill_dir = pathlib.Path(spill_dir)
        self._patches: List[Tuple[object, str, object]] = []
        self._program_keys: Dict[int, Tuple[object, str]] = {}
        self._owner_pid = self._pid = os.getpid()
        self._stack: List[Tuple[int, int]] = []
        self._next_id = 0
        self._steps = 0
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        """Empty the records (ids keep counting, so they stay unique
        within a process across spills)."""
        #: [pid, id, parent, trial, name, start, end]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: controller name -> Core.run seconds / steps taken
        self.run_seconds: Counter = Counter()
        self.run_steps: Counter = Counter()
        self.core_keys: set = set()

    def _after_fork(self) -> None:
        if self._patches:
            self._reset()
            self._stack = []
            self._program_keys.clear()
            self._pid = os.getpid()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        points = [p for p in ENTRY_POINTS
                  if self.mode == "spans" or p[0] in COUNT_POINTS]
        for name, owner, attr in points:
            if isinstance(owner, type):
                for klass in _subclasses(owner):
                    if attr in vars(klass):
                        self._patch(klass, attr,
                                    self._wrap(name, vars(klass)[attr]))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(
                            "repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)
        if self.mode == "count":
            step = Core.step
            tracer = self

            def counting_step(core):
                tracer._steps += 1
                return step(core)
            self._patch(Core, "step", counting_step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = {"pipeline.run": self._before_core_run,
                  "multicore.run": self._before_system_run,
                  "pipeline.window": lambda args: self._steps,
                  "workloads.materialize": self._before_materialize}.get(
                      name)
        after = {"pipeline.run": self._after_core_run,
                 "multicore.run": self._after_system_run,
                 "pipeline.window": self._after_window,
                 "harness.cache_get": self._after_cache_get}.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            parent, trial = tracer._stack[-1] if tracer._stack \
                else (None, None)
            sid = tracer._next_id
            tracer._next_id += 1
            if name == TRIAL_SPAN:
                trial = sid
            tracer._stack.append((sid, trial))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append([tracer._pid, sid, parent, trial, name,
                                     start, end])
            if after:
                after(args, result, token, end - start)
            if not tracer._stack and os.getpid() != tracer._owner_pid:
                tracer._spill()
            return result
        return traced

    # -------------------------------------------------------------- hooks

    def _before_materialize(self, args):
        key = args[0].cache_key
        hit = key is not None and key in workloads_base._BUILD_CACHE
        self.counts["workloads.memo_hits" if hit else "workloads.builds"] += 1

    def _before_core_run(self, args):
        core = args[0]
        if self.mode == "count":
            self.core_keys.add(self._core_key(core))
        return self._steps

    def _after_core_run(self, args, result, steps_before, seconds):
        core = args[0]
        controller = core.runahead.name
        self.counts["pipeline.core_runs"] += 1
        self.run_seconds[controller] += seconds
        self.run_steps[controller] += self._steps - steps_before
        self._add_core(core)

    def _before_system_run(self, args):
        if self.mode == "count":
            for slot in args[0].slots:
                self.core_keys.add(self._core_key(slot.core))
        return self._steps

    def _after_system_run(self, args, result, steps_before, seconds):
        self.run_steps["multicore"] += self._steps - steps_before
        for slot in args[0].slots:
            self.counts["pipeline.core_runs"] += 1
            self._add_core(slot.core)

    def _after_window(self, args, result, steps_before, seconds):
        self.run_steps["window"] += self._steps - steps_before

    def _after_cache_get(self, args, result, token, seconds):
        self.counts["harness.cache_hits"] += result is not None

    def _add_core(self, core) -> None:
        stats = core.stats
        for field in CORE_STATS:
            self.counts[f"core.{field}"] += getattr(stats, field)
        hstats = getattr(core.hierarchy, "stats", None)
        if hstats is not None:
            for field in HIERARCHY_STATS:
                self.counts[f"memory.{field}"] += getattr(hstats, field)

    def _core_key(self, core) -> str:
        """Fingerprint of a core's starting state: program, memory,
        registers, config and controller settings."""
        program = core.program
        cached = self._program_keys.get(id(program))
        if cached is None or cached[0] is not program:
            text = program.disassemble()
            cached = (program, hashlib.sha256(text.encode()).hexdigest())
            self._program_keys[id(program)] = cached
        controller = core.runahead
        settings = sorted((k, v) for k, v in vars(controller).items()
                          if isinstance(v, (int, float, str, bool))
                          or v is None)
        words = sorted(getattr(core.memory, "_words", {}).items())
        payload = repr((cached[1], words, list(core.arch_regs),
                        dataclasses.astuple(core.config),
                        type(controller).__name__, settings))
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------ worker spill

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        record = {"spans": self.spans, "counts": self.counts,
                  "run_seconds": self.run_seconds,
                  "run_steps": self.run_steps,
                  "core_keys": sorted(self.core_keys)}
        with open(self.spill_dir / f"{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    def collect(self) -> None:
        """Merge and delete what forked workers spilled."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.spans.extend(record["spans"])
                    self.counts.update(record["counts"])
                    self.run_seconds.update(record["run_seconds"])
                    self.run_steps.update(record["run_steps"])
                    self.core_keys.update(record["core_keys"])
            path.unlink()

    # ----------------------------------------------------------- analysis

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus direct children."""
        child_time: Counter = Counter()
        for pid, sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[(pid, parent)] += end - start
        totals: Counter = Counter()
        for pid, sid, _, _, name, start, end in self.spans:
            totals[name] += end - start - child_time[(pid, sid)]
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(span[4] for span in self.spans)

    def replay_seconds(self) -> float:
        """Cross-check time outside its own checker runs: the simulator
        replay, inclusive of the layers below it."""
        spans = {(s[0], s[1]): s for s in self.spans}
        total = 0.0
        for pid, sid, parent, _, name, start, end in self.spans:
            if name == "verify.cross_check":
                total += end - start
            elif name == "verify.check" and parent is not None and \
                    spans[(pid, parent)][4] == "verify.cross_check":
                total -= end - start
        return total

    def write(self, path) -> None:
        """All spans, one JSON object per line."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for pid, sid, parent, trial, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"pid": pid, "id": sid, "parent": parent,
                     "trial": trial, "name": name, "start": start,
                     "end": end}) + "\n")
