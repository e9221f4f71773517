"""Covert-channel receiver subsystem (see docs/CHANNELS.md).

A new layer between the core simulator and the attack orchestration:
receiver models (flush+reload, evict+reload, prime+probe) measured
against the simulated :class:`~repro.memory.hierarchy.MemoryHierarchy`,
deterministic injectable noise, multi-trial statistical decoding, and
multi-byte secret extraction with channel-bandwidth metrics.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "decode": ("ChannelDecode", "decode_trials", "dip_space",
               "signal_indices"),
    "extract": ("DEFAULT_CLOCK_HZ", "ByteResult", "ExtractionResult",
                "extract_secret", "render_byte_text"),
    "noise": ("NO_NOISE", "NoiseDraw", "NoiseModel", "SplitMix64",
              "derive_seed"),
    "receiver": ("RECEIVERS", "EvictReloadReceiver", "FlushReloadReceiver",
                 "PrimeProbeReceiver", "ProbeLayout", "ProbeVector",
                 "Receiver", "eviction_set", "make_receiver",
                 "receiver_class"),
    "session": ("ChannelOutcome", "calibrate_receiver",
                "run_channel_attack"),
})
