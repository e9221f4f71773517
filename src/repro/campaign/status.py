"""Campaign progress/metrics, computed from manifest + journal only.

``campaign_status`` never imports the simulator and never writes to
the campaign directory, so it is safe to run against a live campaign
(that is exactly what ``repro campaign status`` and the HTTP server
do).  All figures derive from journal events:

* ``done`` / ``cached`` / ``failed`` / ``retried`` trial counts —
  unique per (sweep, spec_hash), so replayed journal entries from
  several resume runs never double-count;
* cache hit rate — journaled ``cached`` completions over completions;
* throughput (trials/s) over the most recent run's computed trials and
  an ETA for the remainder at that rate;
* lease figures (hosts seen, leases issued) from the scheduler's
  journal records (:mod:`repro.campaign.coordinator`); a run's worker
  processes appear as ``local-<n>`` hosts;
* ``state`` — ``failed`` only for an error journalled since the
  latest ``start`` (a resume is ``in-progress``); ``errors`` keeps
  every run's errors as history.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .journal import CampaignDir

#: How many of the latest computed-trial events feed the rate estimate.
_RATE_WINDOW = 50


def campaign_status(directory) -> Dict[str, Any]:
    """One JSON-ready snapshot of a campaign's progress."""
    cdir = CampaignDir(directory)
    manifest = cdir.read_manifest()
    total = manifest.get("total_trials", 0)

    completed: Dict[tuple, str] = {}      # (sweep, spec_hash) -> status
    retried: set = set()
    retries = 0
    runs = 0
    errors = []
    failed = False                        # an error since the last start
    finished = False
    hosts: set = set()
    leases = {"issued": 0}
    compute_times = []                    # (wall time, elapsed) of "done"
    per_sweep: Dict[str, Dict[str, int]] = {
        s["name"]: {"trials": len(s.get("trials", [])), "done": 0,
                    "cached": 0}
        for s in manifest.get("sweeps", [])}

    for event in cdir.events():
        kind = event.get("event")
        if kind == "start":
            runs += 1
            failed = finished = False
            compute_times = []
        elif kind == "trial":
            key = (event.get("sweep"), event.get("spec_hash"))
            status = event.get("status")
            # First completion wins: a trial computed in run 1 and
            # cache-served in run 2 stays "done" — "cached" means the
            # campaign never had to compute it.
            if key in completed:
                continue
            completed[key] = status
            sweep = per_sweep.setdefault(
                event.get("sweep"), {"trials": 0, "done": 0, "cached": 0})
            if status in ("done", "cached"):
                sweep[status] += 1
            if status == "done" and "time" in event:
                compute_times.append(
                    (event["time"], event.get("elapsed", 0.0)))
        elif kind == "retry":
            retries += 1
            retried.add((event.get("sweep"), event.get("index")))
        elif kind == "error":
            errors.append({"sweep": event.get("sweep"),
                           "message": event.get("message")})
            failed = True
        elif kind == "finish":
            finished = True
        elif kind == "lease":
            leases["issued"] += 1
            if event.get("host"):
                hosts.add(event["host"])

    done = sum(1 for s in completed.values() if s == "done")
    cached = sum(1 for s in completed.values() if s == "cached")
    complete = done + cached
    remaining = max(0, total - complete)

    rate = _throughput(compute_times)
    eta: Optional[float] = None
    if remaining and rate:
        eta = remaining / rate

    return {
        "name": manifest.get("name"),
        "directory": str(cdir.path),
        "cache": manifest.get("cache"),
        "sweeps": per_sweep,
        "total_trials": total,
        "completed": complete,
        "computed": done,
        "cached": cached,
        "remaining": remaining,
        "progress": (complete / total) if total else 0.0,
        "cache_hit_rate": (cached / complete) if complete else 0.0,
        "retries": retries,
        "trials_retried": len(retried),
        "runs": runs,
        "errors": errors,
        "state": ("finished" if finished and not remaining else
                  "failed" if failed and not finished else
                  "in-progress" if runs else "created"),
        "trials_per_second": rate,
        "eta_seconds": eta,
        "hosts": sorted(hosts),
        "leases": leases,
    }


def _throughput(compute_times) -> Optional[float]:
    """Trials/s over the tail of the latest run's computed trials."""
    window = compute_times[-_RATE_WINDOW:]
    if len(window) < 2:
        return None
    span = window[-1][0] - window[0][0]
    if span <= 0:
        return None
    # First event's own compute time is outside the span; count n-1
    # completions over it, classic open-interval rate.
    return (len(window) - 1) / span


def render_status(status: Dict[str, Any]) -> str:
    """Human-readable status block for the CLI."""
    lines = [
        f"campaign   : {status['name']}  [{status['state']}]",
        f"directory  : {status['directory']}",
        f"cache      : {status['cache']} "
        f"(hit rate {status['cache_hit_rate']:.0%})",
        f"progress   : {status['completed']}/{status['total_trials']} "
        f"trials ({status['progress']:.0%}) — {status['computed']} "
        f"computed, {status['cached']} cached, "
        f"{status['remaining']} remaining",
        f"retries    : {status['retries']} "
        f"({status['trials_retried']} trial(s) affected) over "
        f"{status['runs']} run(s)",
    ]
    if status["trials_per_second"]:
        lines.append(f"throughput : "
                     f"{status['trials_per_second']:.2f} trials/s")
    if status["eta_seconds"] is not None:
        lines.append(f"eta        : {status['eta_seconds']:.0f}s")
    if status.get("hosts"):
        leases = status["leases"]
        lines.append(f"hosts      : {len(status['hosts'])} "
                     f"({', '.join(status['hosts'])}) — "
                     f"{leases['issued']} lease(s)")
    for sweep, counts in status["sweeps"].items():
        lines.append(f"  sweep {sweep}: "
                     f"{counts['done'] + counts['cached']}"
                     f"/{counts['trials']} "
                     f"({counts['cached']} cached)")
    for error in status["errors"]:
        lines.append(f"  error [{error['sweep']}]: {error['message']}")
    return "\n".join(lines)
