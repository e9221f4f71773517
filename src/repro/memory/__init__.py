"""Memory subsystem: caches, main memory, hierarchy."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "cache": ("CacheConfig", "CacheStats", "SetAssociativeCache"),
    "hierarchy": ("LEVEL_L1", "LEVEL_L2", "LEVEL_L3", "LEVEL_MEM",
                  "LEVEL_PENDING", "PHYS_WINDOW_STRIDE", "AccessResult",
                  "HierarchyConfig", "HierarchyStats",
                  "MemoryHierarchy", "SharedHierarchy"),
    "main_memory": ("ChannelStats", "MainMemory", "MemoryChannel"),
})
