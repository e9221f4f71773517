"""The §6 defenses: SL cache + taint tracking, and branch-skip restriction."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "restrictions": ("BranchRestrictedRunahead",),
    "secure": ("SecureRunahead",),
    "sl_cache": ("SLCache", "SLCacheStats", "SLEntry"),
    "taint": ("UNTRUSTED", "Scope", "TaintInfo", "TaintTracker"),
})
