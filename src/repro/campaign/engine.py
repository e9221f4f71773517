"""Fault-tolerant, resumable campaign execution.

A *campaign* is one or more :class:`~repro.harness.spec.Sweep`\\ s run
as a journaled job in a self-contained directory (see
:mod:`repro.campaign.journal`).  :meth:`Campaign.run` schedules it
with the lease state machine
(:class:`~repro.campaign.coordinator.CoordinatorState`), and computes
it with the worker loop (:func:`repro.campaign.worker.work`):

* **Local workers** — with ``workers >= 2`` the engine forks that many
  processes, each running the worker loop over a pipe to the parent.
  The parent is the only caller of the state machine: it answers
  claims, completions and failures, so workers pull the next
  trial the moment they finish the last one.  Journaled ``lease``
  events carry ``local-<n>`` host ids.
* **Fault tolerance** — a worker that dies (SIGKILL, OOM) or hangs
  past the per-trial timeout is killed and its trial failed as a
  transient ``worker-error``; the state re-queues it with bounded
  capped-jitter retries and a replacement worker is spawned.
  Deterministic :class:`~repro.harness.runner.TrialError`\\ s are
  *not* retried — rerunning a deterministic failure can only fail the
  same way — they abort the campaign (journaled, so ``status`` shows
  what broke).
* **Resumability** — results live in the campaign's content-addressed
  :class:`~repro.harness.cache.CacheBackend` and completions are
  journaled write-ahead; a campaign killed at any instant resumes by
  skipping everything cached and finishes **byte-identical** to an
  uninterrupted run at any worker count.
* **Graceful degradation** — one worker, a single pending trial, or a
  failed process spawn run the loop in-process with direct calls into
  the state: the same retry semantics, minus timeouts (a hung trial
  cannot be killed without a separate process).

:func:`repro.harness.run_sweep` with ``workers > 1`` runs its sweep
as a throwaway campaign, so this is the only multi-process scheduler.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.cache import CacheBackend, resolve_cache
from ..harness.executor import SweepResult, default_workers
from ..harness.runner import TrialError
from ..harness.spec import Sweep
from .coordinator import DEFAULT_BACKOFF, DEFAULT_RETRIES, CoordinatorState
from .journal import CampaignDir, CampaignError
from .worker import TrialRunner, work


def _pipe_worker(conn, host: str, runner: Optional[TrialRunner]) -> None:
    """Body of a forked local worker: the worker loop over its end of
    a pipe."""
    def call(endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        conn.send((endpoint, payload))
        return conn.recv()
    try:
        work(call, host, runner=runner)
    except (EOFError, OSError):
        pass                        # the campaign parent is gone


class _LocalWorkers:
    """Parent side of the forked local workers.

    Blocks on the workers' pipes and process sentinels, forwards each
    request to the state and sends the reply back.  A claim that finds
    nothing ready is parked — answered as soon as a retry is released
    — instead of sending the worker off to sleep.  Dead workers fail
    their lease as ``worker died (exit code N)``; a worker whose lease
    outlives the manifest timeout is killed and failed as ``timeout
    after Ns``.
    """

    def __init__(self, state: CoordinatorState, workers: int,
                 runner: Optional[TrialRunner]):
        self.state = state
        self.workers = workers
        self.runner = runner
        self.ctx = multiprocessing.get_context()
        self.procs: Dict[Any, Any] = {}        # conn -> Process
        self.leases: Dict[Any, Tuple[str, float]] = {}  # conn -> held
        self.parked: Dict[Any, str] = {}       # conn -> host
        self.spawned = 0

    def run(self) -> Optional[str]:
        """Drive the state until it settles.  Returns why no worker
        process could be started, or ``None``."""
        state = self.state
        try:
            while not state.settled:
                state.reconcile()
                self._serve_parked()
                failure = self._top_up()
                if failure is not None:
                    return failure
                ready = wait(list(self.procs) +
                             [proc.sentinel for proc in self.procs.values()],
                             self._wake_in())
                for conn, proc in list(self.procs.items()):
                    if conn in ready and self._handle(conn):
                        continue
                    if conn in ready or proc.sentinel in ready:
                        self._drop(conn)
                self._enforce_timeout()
            return None
        finally:
            for conn, proc in self.procs.items():
                proc.kill()          # idle, or abandoned by an abort
                proc.join()
                conn.close()

    def _spawn(self) -> None:
        conn, child = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_pipe_worker,
            args=(child, f"local-{self.spawned}", self.runner),
            daemon=True)
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

    def _handle(self, conn) -> bool:
        """Answer one request; False when the pipe is closed."""
        try:
            endpoint, payload = conn.recv()
        except (EOFError, OSError):
            return False
        if endpoint == "claim":
            self._claim(conn, payload["host"])
            return True
        self.leases.pop(conn, None)
        self._send(conn, self.state.handle(endpoint, payload))
        return True

    def _claim(self, conn, host: str) -> bool:
        """Answer a claim; park it (False) while nothing is ready."""
        body = self.state.claim(host)
        if "retry_after" in body:
            self.parked[conn] = host
            return False
        self.parked.pop(conn, None)
        if "lease" in body:
            self.leases[conn] = (body["lease"], time.monotonic())
        self._send(conn, body)
        return True

    def _serve_parked(self) -> None:
        for conn, host in list(self.parked.items()):
            if not self.state.queue or not self._claim(conn, host):
                return

    def _send(self, conn, reply) -> None:
        try:
            conn.send(reply)
        except OSError:
            pass                    # died meanwhile; reaped next round

    def _wake_in(self) -> Optional[float]:
        """Seconds until a delayed retry is due or a lease times out;
        ``None`` blocks until a worker speaks or dies."""
        due = [ready for ready, _ in self.state.delayed[:1]]
        if self.state.timeout:
            due += [claimed + self.state.timeout
                    for _, claimed in self.leases.values()]
        return max(0.0, min(due) - time.monotonic()) if due else None

    def _enforce_timeout(self) -> None:
        timeout = self.state.timeout
        if not timeout:
            return
        now = time.monotonic()
        for conn, (_, claimed) in list(self.leases.items()):
            if now - claimed >= timeout:
                self._drop(conn, f"timeout after {timeout:g}s")

    def _drop(self, conn, reason: Optional[str] = None) -> None:
        """Kill and reap one worker; fail the lease it held."""
        proc = self.procs.pop(conn)
        proc.kill()
        proc.join()
        conn.close()
        self.parked.pop(conn, None)
        held = self.leases.pop(conn, None)
        if held is not None:
            self.state.fail({
                "lease": held[0], "kind": "worker-error",
                "reason": reason or f"worker died (exit code "
                                    f"{proc.exitcode})"})


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
        if not state.settled:        # in-process: direct calls
            work(state.handle, "local-0", runner=runner)
        if state.error is not None:
            raise (TrialError if state.error_kind == "trial-error"
                   else CampaignError)(state.error)
        return [state.results[name] for name in state.plans]
