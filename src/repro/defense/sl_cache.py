"""Speculative-Load cache (§6).

An "L0" structure that quarantines the lines runahead execution fetched
from memory.  Entries carry the Btag/IS tags of the load that fetched
them and a data-ready cycle (the memory fill still takes its full
latency).  After runahead exits, Algorithm 1 consults the SL cache first:
safe entries promote to L1 on first use; USL entries wait for their
guarding branch; entries of mispredicted scopes are deleted without ever
becoming architecturally visible in the cache hierarchy.

The counter ``C`` from the paper tracks live entries so the processor
stops consulting the SL cache once it has drained.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


@dataclass
class SLEntry:
    line: int
    btag: Optional[Tuple[int, int]]
    is_set: FrozenSet[int]
    ready_cycle: int
    first_wait_cycle: Optional[int] = None

    @property
    def scope_ids(self):
        ids = set(self.is_set)
        if self.btag is not None:
            ids.add(self.btag[0])
        return ids

    @property
    def is_usl(self):
        return bool(self.is_set)


@dataclass
class SLCacheStats:
    inserts: int = 0
    promotions: int = 0
    deletions: int = 0
    usl_waits: int = 0
    evictions: int = 0
    timeouts: int = 0


class SLCache:
    """FIFO-evicting line-granular quarantine buffer."""

    def __init__(self, capacity=64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[int, SLEntry]" = OrderedDict()
        self.stats = SLCacheStats()

    @property
    def counter(self):
        """The paper's C: number of resident entries."""
        return len(self._entries)

    def insert(self, line, btag, is_set, ready_cycle):
        """Quarantine a runahead fill (replaces an existing entry)."""
        if line in self._entries:
            del self._entries[line]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[line] = SLEntry(line=line, btag=btag,
                                      is_set=frozenset(is_set),
                                      ready_cycle=ready_cycle)
        self.stats.inserts += 1

    def lookup(self, line) -> Optional[SLEntry]:
        return self._entries.get(line)

    def remove(self, line) -> bool:
        if line in self._entries:
            del self._entries[line]
            return True
        return False

    def promote(self, line) -> Optional[SLEntry]:
        """Take an entry out for promotion into L1 (C decrements)."""
        entry = self._entries.pop(line, None)
        if entry is not None:
            self.stats.promotions += 1
        return entry

    def delete_scopes(self, scope_ids) -> int:
        """Delete every entry tagged by any of ``scope_ids`` (Algorithm 1
        line 16: the mispredicted branch and its inner branches)."""
        scope_ids = set(scope_ids)
        doomed = [line for line, entry in self._entries.items()
                  if entry.scope_ids & scope_ids]
        for line in doomed:
            del self._entries[line]
        self.stats.deletions += len(doomed)
        return len(doomed)
