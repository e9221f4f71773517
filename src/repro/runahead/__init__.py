"""Runahead execution variants: original, precise, vector."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "base": ("NoRunahead", "RunaheadController"),
    "checkpoint": ("Checkpoint",),
    "original": ("OriginalRunahead",),
    "precise": ("PreciseRunahead", "compute_stall_slices"),
    "runahead_cache": ("RunaheadCache",),
    "vector": ("VectorRunahead",),
})
