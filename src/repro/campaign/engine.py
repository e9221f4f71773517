"""Fault-tolerant, resumable campaign execution.

A *campaign* is one or more :class:`~repro.harness.spec.Sweep`\\ s run
as a journaled job in a self-contained directory (see
:mod:`repro.campaign.journal`).  :meth:`Campaign.run` schedules it
with one state machine
(:class:`~repro.campaign.coordinator.CoordinatorState`), and computes
each trial with :func:`repro.campaign.worker.run_one`:

* **Local workers** — with ``workers >= 2`` the engine forks that many
  processes.  The parent is the only caller of the state machine: it
  pushes the next ready trial to each idle worker over its pipe, and
  the worker answers with that trial's one outcome.  Journaled
  ``lease`` events carry ``local-<n>`` host ids.
* **Fault tolerance** — a worker that dies (SIGKILL, OOM) or hangs
  past the per-trial timeout is killed and its trial failed as a
  transient ``worker-error``; the state re-queues it with bounded
  capped-jitter retries and a replacement worker is spawned.
  Deterministic :class:`~repro.harness.runner.TrialError`\\ s are
  *not* retried — rerunning a deterministic failure can only fail the
  same way — they abort the campaign (journaled, so ``status`` shows
  what broke).  Idle workers are stopped and joined; only a worker
  that holds a trial when the run ends is killed.
* **Resumability** — results live in the campaign's content-addressed
  :class:`~repro.harness.cache.CacheBackend` and completions are
  journaled write-ahead; a campaign killed at any instant resumes by
  skipping everything cached and finishes **byte-identical** to an
  uninterrupted run at any worker count.
* **Graceful degradation** — one worker, a single pending trial, or a
  failed process spawn run the same loop in-process: the same retry
  semantics, minus timeouts (a hung trial cannot be killed without a
  separate process).

:func:`repro.harness.run_sweep` with ``workers > 1`` runs its sweep
as a throwaway campaign, so this is the only multi-process scheduler.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional

from ..harness.cache import CacheBackend, resolve_cache
from ..harness.executor import SweepResult, default_workers
from ..harness.runner import TrialError
from ..harness.spec import Sweep
from .coordinator import (DEFAULT_BACKOFF, DEFAULT_RETRIES,
                          CoordinatorState, Held)
from .journal import CampaignDir, CampaignError
from .worker import TrialRunner, run_one, worker_loop


class _LocalWorkers:
    """Parent side of the forked local workers.

    Hands each idle worker the next ready trial, then blocks on the
    workers' pipes, their process sentinels and the next due retry or
    timeout, and settles each outcome with the state.  Dead workers
    fail their trial as ``worker died (exit code N)``; a worker whose
    trial outlives the manifest timeout is killed and failed as
    ``timeout after Ns``.
    """

    def __init__(self, state: CoordinatorState, workers: int,
                 runner: Optional[TrialRunner]):
        self.state = state
        self.workers = workers
        self.runner = runner
        self.ctx = multiprocessing.get_context()
        self.procs: Dict[Any, Any] = {}        # conn -> Process
        self.held: Dict[Any, Held] = {}        # conn -> its trial
        self.spawned = 0

    def run(self) -> Optional[str]:
        """Drive the state until it settles.  Returns why no worker
        process could be started, or ``None``."""
        state = self.state
        try:
            while not state.settled:
                failure = self._top_up()
                if failure is not None:
                    return failure
                self._hand_out()
                ready = wait(list(self.procs) +
                             [proc.sentinel for proc in self.procs.values()],
                             self._wake_in())
                for conn, proc in list(self.procs.items()):
                    if conn in ready:
                        try:
                            outcome = conn.recv()
                        except (EOFError, OSError):
                            self._drop(conn)
                            continue
                        state.settle(self.held.pop(conn), *outcome)
                    elif proc.sentinel in ready:
                        self._drop(conn)
                self._enforce_timeout()
            return None
        finally:
            self._stop()

    def _spawn(self) -> None:
        conn, child = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=worker_loop, args=(child, self.runner),
            name=f"local-{self.spawned}", daemon=True)
        try:
            proc.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child.close()
        self.spawned += 1
        self.procs[conn] = proc

    def _top_up(self) -> Optional[str]:
        while len(self.procs) < min(self.workers,
                                    len(self.state.unfinished)):
            try:
                self._spawn()
            except (OSError, MemoryError) as exc:
                if not self.procs:
                    return str(exc)
                break               # keep going with the workers we have
        return None

    def _hand_out(self) -> None:
        for conn, proc in self.procs.items():
            if conn in self.held:
                continue
            held = self.state.next_trial(proc.name)
            if held is None:
                return
            self.held[conn] = held
            try:
                conn.send(self.state.trials[held[0]].to_dict())
            except OSError:
                pass                # died meanwhile; reaped next round

    def _wake_in(self) -> Optional[float]:
        """Seconds until a delayed retry is due or a held trial times
        out; ``None`` blocks until a worker speaks or dies."""
        retry = self.state.next_due()
        due = [] if retry is None else [retry]
        if self.state.timeout:
            due += [issued + self.state.timeout
                    for _, _, issued in self.held.values()]
        return max(0.0, min(due) - time.monotonic()) if due else None

    def _enforce_timeout(self) -> None:
        timeout = self.state.timeout
        if not timeout:
            return
        now = time.monotonic()
        for conn, (_, _, issued) in list(self.held.items()):
            if now - issued >= timeout:
                self._drop(conn, f"timeout after {timeout:g}s")

    def _drop(self, conn, reason: Optional[str] = None) -> None:
        """Kill and reap one worker; fail the trial it held."""
        proc = self.procs.pop(conn)
        proc.kill()
        proc.join()
        conn.close()
        held = self.held.pop(conn, None)
        if held is not None:
            self.state.settle(held, "worker-error",
                              reason or f"worker died (exit code "
                                        f"{proc.exitcode})")

    def _stop(self) -> None:
        """Stop idle workers and join them; kill the ones that still
        hold a trial (an abort, or an exception out of the loop)."""
        for conn, proc in self.procs.items():
            if conn in self.held:
                proc.kill()
                continue
            try:
                conn.send(None)
            except OSError:
                proc.kill()
        for conn, proc in self.procs.items():
            proc.join()
            conn.close()


def _in_process(state: CoordinatorState,
                runner: Optional[TrialRunner]) -> None:
    """The scheduler loop without processes: run each handed-out trial
    here, sleeping until a delayed retry is due when none is ready."""
    while not state.settled:
        held = state.next_trial("local-0")
        if held is None:
            time.sleep(max(0.0, state.next_due() - time.monotonic()))
            continue
        state.settle(held, *run_one(state.trials[held[0]], runner))


def _resolve_campaign_cache(spec: Any, base: CampaignDir) -> CacheBackend:
    """Backend from a manifest cache URI, relative paths anchored at
    the campaign directory (so a campaign dir can be moved around)."""
    if isinstance(spec, str) and ":" in spec:
        scheme, _, location = spec.partition(":")
        if not location.startswith("/"):
            spec = f"{scheme}:{base.path / location}"
        try:
            return resolve_cache(spec)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
    raise CampaignError(f"campaign cache must be a dir: URI or a "
                        f"CacheBackend, got {spec!r}")


class Campaign:
    """One campaign directory: manifest, journal, cache, results."""

    def __init__(self, cdir: CampaignDir, manifest: Dict[str, Any],
                 store: Optional[CacheBackend] = None):
        self.cdir = cdir
        self.manifest = manifest
        self._store = store        # the backend object given to create

    # ---------------------------------------------------- lifecycle

    @classmethod
    def create(cls, directory, sweeps, cache=None,
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               max_retries: int = DEFAULT_RETRIES,
               backoff: float = DEFAULT_BACKOFF,
               name: Optional[str] = None) -> "Campaign":
        """Lay down a new campaign directory for these sweeps.

        ``cache`` is a ``dir:`` URI (relative paths live
        inside the campaign directory) or a :class:`CacheBackend`,
        which this campaign then runs on as given (the manifest keeps
        its URI for a later :meth:`open`); the default is
        ``dir:cache`` — a directory backend inside the campaign dir,
        making the whole campaign self-contained.
        """
        if isinstance(sweeps, Sweep):
            sweeps = [sweeps]
        if not sweeps:
            raise CampaignError("a campaign needs at least one sweep")
        names = [s.name for s in sweeps]
        if len(set(names)) != len(names):
            raise CampaignError(f"sweep names must be unique, got {names}")
        cdir = CampaignDir(directory)
        if cdir.exists():
            raise CampaignError(
                f"{cdir.path} already holds a campaign — use "
                f"Campaign.open / `repro campaign resume` to continue it")
        store = None
        if isinstance(cache, CacheBackend):
            store, cache_uri = cache, cache.uri()
        else:
            cache_uri = "dir:cache" if cache is None else str(cache)
            _resolve_campaign_cache(cache_uri, cdir)  # reject bad URIs early
        manifest = {
            "version": 1,
            "name": name or "+".join(names),
            "cache": cache_uri,
            "workers": workers,
            "timeout": timeout,
            "max_retries": max_retries,
            "backoff": backoff,
            "sweeps": [s.to_dict() for s in sweeps],
            "signatures": {s.name: s.signature() for s in sweeps},
            "total_trials": sum(len(s) for s in sweeps),
        }
        cdir.write_manifest(manifest)
        cdir.append_event({"event": "created", "name": manifest["name"],
                           "sweeps": names, "cache": cache_uri,
                           "total_trials": manifest["total_trials"]})
        return cls(cdir, manifest, store)

    @classmethod
    def open(cls, directory) -> "Campaign":
        """Open an existing campaign, verifying manifest integrity."""
        cdir = CampaignDir(directory)
        manifest = cdir.read_manifest()
        for sweep in cdir.sweeps(manifest):
            want = manifest.get("signatures", {}).get(sweep.name)
            if want is not None and sweep.signature() != want:
                raise CampaignError(
                    f"manifest signature mismatch for sweep "
                    f"{sweep.name!r} — {cdir.manifest_path} was edited "
                    f"after creation")
        campaign = cls(cdir, manifest)
        try:
            campaign.backend()
        except CampaignError as exc:
            raise CampaignError(
                f"{exc}; {cdir.path} cannot be continued — re-run its "
                f"sweeps in a fresh --dir (results recompute "
                f"byte-identically)") from None
        return campaign

    @classmethod
    def create_or_open(cls, directory, sweeps, **kwargs) -> "Campaign":
        """Open when the directory already holds the *same* sweeps
        (resume); create otherwise."""
        cdir = CampaignDir(directory)
        if not cdir.exists():
            return cls.create(directory, sweeps, **kwargs)
        campaign = cls.open(directory)
        if isinstance(sweeps, Sweep):
            sweeps = [sweeps]
        want = {s.name: s.signature() for s in sweeps}
        if want != campaign.manifest.get("signatures"):
            raise CampaignError(
                f"{cdir.path} holds a different campaign "
                f"({sorted(campaign.manifest.get('signatures', {}))}); "
                f"pick a fresh --dir for {sorted(want)}")
        return campaign

    # --------------------------------------------------- properties

    @property
    def directory(self):
        return self.cdir.path

    def sweeps(self) -> List[Sweep]:
        return self.cdir.sweeps(self.manifest)

    def backend(self) -> CacheBackend:
        if self._store is not None:
            return self._store
        return _resolve_campaign_cache(self.manifest["cache"], self.cdir)

    # ---------------------------------------------------- execution

    def run(self, workers: Optional[int] = None,
            progress: Optional[Callable[[str], None]] = None,
            force: bool = False, runner: Optional[TrialRunner] = None) \
            -> List[SweepResult]:
        """Execute (or resume) every sweep; returns ordered results.

        Already-cached trials are skipped — running this on a killed
        campaign completes exactly the work that is missing, and the
        written ``<sweep>.result.json`` files are byte-identical to an
        uninterrupted run at any worker count.
        """
        workers = self.manifest.get("workers") if workers is None \
            else workers
        workers = default_workers() if workers is None else max(1, workers)
        state = CoordinatorState(self, workers, progress=progress,
                                 force=force)
        if workers > 1 and len(state.unfinished) > 1:
            failure = _LocalWorkers(state, workers, runner).run()
            if failure is not None:
                self.cdir.append_event({
                    "event": "degraded", "run": state.run_id,
                    "reason": f"worker processes unavailable "
                              f"({failure}); running in-process"})
        _in_process(state, runner)
        if state.error is not None:
            raise (TrialError if state.error_kind == "trial-error"
                   else CampaignError)(state.error)
        return [state.results[name] for name in state.plans]
