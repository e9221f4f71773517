"""Capped, jittered retries — for trials and for the network.

Two layers share one backoff law:

* :func:`backoff_delay` — **full-jitter** exponential backoff with a
  hard cap.  The classic ``base * 2**(attempt-1)`` schedule is both
  uncapped (attempt 20 waits six days) and deterministic (every trial
  that failed in the same instant retries in the same instant —
  lockstep thundering herds).  Full jitter draws the delay uniformly
  from ``[0, min(cap, base * 2**(attempt-1))]``; the draw is seeded
  from a caller-supplied ``key`` so two *different* trials (or hosts)
  desynchronize while the *same* trial retries identically across
  runs — reproducible tests, no herd.
* :func:`request_json` — one HTTP JSON exchange with a per-request
  timeout and capped, jittered retries on every transient failure
  (connection refused/reset, timeouts, truncated or garbled responses,
  5xx).  Protocol-level responses (2xx-4xx with a JSON body) are
  returned to the caller, never retried.  When the retry budget is
  exhausted, :class:`Unreachable` is raised — callers degrade
  gracefully instead of corrupting anything.

Everything in this module is stdlib-only and import-light; the
campaign scheduler (:mod:`repro.campaign.coordinator`) and the
network stack (worker / ``http:`` cache backend) build on it.
"""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.client import HTTPException
from typing import Any, Callable, Dict, Optional, Tuple

#: Hard ceiling on any single backoff delay, in seconds.
DEFAULT_MAX_DELAY = 30.0


class Unreachable(RuntimeError):
    """The peer stayed unreachable through the whole retry budget."""


def backoff_delay(base: float, attempt: int,
                  cap: float = DEFAULT_MAX_DELAY,
                  key: Any = None) -> float:
    """Full-jitter delay for retry ``attempt`` (1-based), capped.

    ``key`` seeds the jitter: pass something that identifies the
    retrying entity (a ``(sweep, index)`` trial key, a host id...) so
    distinct entities spread out while the same entity draws the same
    schedule on every run.  ``key=None`` draws from the global RNG
    (still capped, no longer reproducible).
    """
    ceiling = min(cap, base * (2 ** max(0, attempt - 1)))
    if ceiling <= 0:
        return 0.0
    if key is None:
        return random.uniform(0.0, ceiling)
    # str seeds hash stably (sha512 path) — identical across processes
    # and PYTHONHASHSEED values, unlike tuple hashes.
    rng = random.Random(f"{key!r}#{attempt}")
    return rng.uniform(0.0, ceiling)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard one logical network call tries before giving up."""

    attempts: int = 5          #: total tries (first call included)
    base_delay: float = 0.2    #: first-retry backoff base, seconds
    max_delay: float = 5.0     #: per-delay cap, seconds
    timeout: float = 10.0      #: socket timeout per request, seconds

    def delay(self, attempt: int, key: Any = None) -> float:
        return backoff_delay(self.base_delay, attempt,
                             cap=self.max_delay, key=key)


#: Default policy for coordinator/worker/cache traffic.
DEFAULT_POLICY = RetryPolicy()


def request_json(url: str, payload: Optional[Dict[str, Any]] = None,
                 method: Optional[str] = None,
                 policy: RetryPolicy = DEFAULT_POLICY,
                 key: Any = None,
                 sleep: Callable[[float], None] = None) \
        -> Tuple[int, Any]:
    """One JSON request/response with timeout + capped jittered retries.

    Returns ``(status_code, decoded_body)``.  A body that fails to
    decode as JSON on a 2xx (a truncated response, say) counts as a
    transient failure and is retried; 4xx responses are returned with
    their decoded body (or ``{}``) — they are protocol answers, not
    infrastructure faults.  Raises :class:`Unreachable` after the last
    attempt fails transiently.
    """
    import time as _time
    sleep = sleep or _time.sleep
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    if method is None:
        method = "POST" if payload is not None else "GET"

    last_error: Optional[BaseException] = None
    for attempt in range(1, max(1, policy.attempts) + 1):
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(
                    request, timeout=policy.timeout) as response:
                body = response.read()
                return response.status, _decode(body)
        except urllib.error.HTTPError as exc:
            if exc.code >= 500:
                last_error = exc
            else:
                try:
                    body = exc.read()
                except OSError:
                    body = b""
                try:
                    return exc.code, _decode(body)
                except ValueError:
                    return exc.code, {}
        except (urllib.error.URLError, HTTPException, OSError,
                ValueError) as exc:
            # URLError covers refused/reset/DNS; HTTPException covers
            # truncated reads and bad status lines from a flaky link;
            # ValueError is a garbled JSON body on a 2xx.
            last_error = exc
        if attempt < policy.attempts:
            sleep(policy.delay(attempt, key=key))
    raise Unreachable(
        f"{method} {url} failed after {policy.attempts} attempt(s): "
        f"{type(last_error).__name__}: {last_error}")


def _decode(body: bytes) -> Any:
    if not body:
        return {}
    return json.loads(body.decode("utf-8"))
