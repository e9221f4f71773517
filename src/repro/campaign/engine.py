"""Fault-tolerant, resumable campaign execution.

A *campaign* is one or more :class:`~repro.harness.spec.Sweep`\\ s run
as a journaled job in a self-contained directory (see
:mod:`repro.campaign.journal`).  :meth:`Campaign.run` schedules it
with the same lease state machine the multi-host coordinator serves
(:class:`~repro.campaign.coordinator.CoordinatorState`), and computes
it with the same worker loop (:func:`repro.campaign.worker.work`):

* **Local workers** — with ``workers >= 2`` the engine forks that many
  processes, each running the worker loop over a pipe to the parent.
  The parent is the only caller of the state machine: it answers
  claims, renewals, completions and failures, so workers pull the next
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

:class:`CampaignExecutor` adapts all of this to the
:class:`~repro.harness.executor.Executor` protocol, so a campaign can
run anywhere a plain executor does.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..harness.cache import CacheBackend, resolve_cache
from ..harness.executor import Executor, SweepResult, default_workers
from ..harness.runner import TrialError
from ..harness.spec import Sweep
from .coordinator import DEFAULT_BACKOFF, DEFAULT_RETRIES, CoordinatorState
from .journal import CampaignDir, CampaignError
from .netretry import Unreachable
from .worker import TrialRunner, work


def _pipe_worker(conn, host: str, runner: Optional[TrialRunner]) -> None:
    """Body of a forked local worker: the worker loop over its end of
    a pipe.  The heartbeat thread shares the pipe, so the lock keeps
    each request paired with its reply."""
    lock = threading.Lock()

    def call(endpoint: str, payload: Dict[str, Any]) -> Tuple[int, Any]:
        with lock:
            try:
                conn.send((endpoint, payload))
                return conn.recv()
            except (EOFError, OSError) as exc:
                raise Unreachable(f"campaign parent gone: {exc}") from exc
    work(call, host, runner=runner)


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
        if endpoint != "renew":
            self.leases.pop(conn, None)
        self._send(conn, self.state.handle(endpoint, payload))
        return True

    def _claim(self, conn, host: str) -> bool:
        """Answer a claim; park it (False) while nothing is ready."""
        code, body = self.state.claim(host)
        if "retry_after" in body:
            self.parked[conn] = host
            return False
        self.parked.pop(conn, None)
        if "lease" in body:
            self.leases[conn] = (body["lease"], time.monotonic())
        self._send(conn, (code, body))
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
    the campaign directory (so a campaign dir can be moved around).
    Remote ``http:``/``https:`` URIs pass through untouched — there is
    nothing to anchor."""
    if isinstance(spec, CacheBackend):
        return spec
    if isinstance(spec, str) and ":" in spec:
        scheme, _, location = spec.partition(":")
        if scheme not in ("http", "https") \
                and not location.startswith("/"):
            spec = f"{scheme}:{base.path / location}"
        try:
            return resolve_cache(spec)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
    raise CampaignError(f"campaign cache must be a dir:/http: "
                        f"URI or a CacheBackend, got {spec!r}")


class Campaign:
    """One campaign directory: manifest, journal, cache, results."""

    def __init__(self, cdir: CampaignDir, manifest: Dict[str, Any]):
        self.cdir = cdir
        self.manifest = manifest

    # ---------------------------------------------------- lifecycle

    @classmethod
    def create(cls, directory, sweeps, cache=None,
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               max_retries: int = DEFAULT_RETRIES,
               backoff: float = DEFAULT_BACKOFF,
               name: Optional[str] = None) -> "Campaign":
        """Lay down a new campaign directory for these sweeps.

        ``cache`` is a ``dir:``/``http:`` URI (relative paths live
        inside the campaign directory) or a :class:`CacheBackend`;
        the default is ``dir:cache`` — a directory backend inside the
        campaign dir, making the whole campaign self-contained.
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
        if cache is None:
            cache_uri = "dir:cache"
        elif isinstance(cache, CacheBackend):
            cache_uri = cache.uri()
        else:
            cache_uri = str(cache)
        _resolve_campaign_cache(cache_uri, cdir)     # reject bad URIs early
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
        return cls(cdir, manifest)

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
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def directory(self):
        return self.cdir.path

    def sweeps(self) -> List[Sweep]:
        return self.cdir.sweeps(self.manifest)

    def backend(self) -> CacheBackend:
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
        state = CoordinatorState(self, progress=progress, force=force,
                                 workers=workers)
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


class CampaignExecutor(Executor):
    """:class:`Executor` adapter: run one sweep as a resumable campaign.

    ``execute(sweep, cache)`` creates the campaign directory on first
    use and resumes it on every later call with the same sweep.  With
    ``cache="auto"`` the campaign uses its own self-contained store
    (``<dir>/cache``) rather than the global result cache — pass an
    explicit URI or backend to share state across campaigns.
    """

    def __init__(self, directory, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 runner: Optional[TrialRunner] = None):
        self.directory = directory
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.runner = runner

    def execute(self, sweep: Sweep, cache="auto", force: bool = False,
                progress: Optional[Callable[[str], None]] = None) \
            -> SweepResult:
        campaign = Campaign.create_or_open(
            self.directory, [sweep],
            cache=None if cache == "auto" else cache,
            workers=self.workers, timeout=self.timeout,
            max_retries=self.max_retries, backoff=self.backoff)
        results = campaign.run(workers=self.workers, progress=progress,
                               force=force, runner=self.runner)
        return results[0]
