"""A run of nops travels through the core as one record, exactly.

Fetch, dispatch and commit move a run of consecutive nops as one
record that carries a count; the ROB and front-end bounds count slots.
Each case below drives one edge of that bookkeeping and pins the run's
``CoreStats``, its ``DispatchStalls`` and the SHA-256 of its traced
event stream (one fetch, dispatch, commit or pseudo-retire event per
nop, with its own seq and pc) to the values the one-record-per-nop
core produced.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.attack.window import window_program
from repro.harness.registry import make_controller
from repro.isa.assembler import assemble
from repro.isa.memory_image import MemoryImage
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.stats import STALL_REASONS
from tests.sim import MemorySink


def window(sled, controller):
    """Fig. 10's ``clflush x; load x; nop sled`` under ``controller``."""
    program, image = window_program(sled=sled)
    return Core(program, memory_image=image, config=CoreConfig.paper(),
                runahead=make_controller(controller), warm_icache=True)


def straight(source, warm=True, **config):
    return Core(assemble(source), config=CoreConfig.paper(**config),
                warm_icache=warm)


def wrong_path_sled():
    """A branch on a missing load, predicted not taken: the sled it
    skips is fetched, fills the ROB and is squashed when it resolves."""
    source = """
        li   r1, @x_word
        clflush r1, 0
        fence
        load r2, r1, 0
        beq  r2, r0, skip
        .repeat 300, nop
    skip:
        halt
    """
    image = MemoryImage()
    image.alloc_array("x_word", 2)
    return Core(assemble(source, memory_image=image), memory_image=image,
                config=CoreConfig.paper(), warm_icache=True)


CASES = {
    # The ROB has fewer free slots than the run at the front-end head.
    "rob-split": lambda: window(400, "none"),
    # Fetch room (22 slots, not a multiple of the width) cuts runs.
    "fetch-room-split": lambda: straight(".repeat 200, nop\nhalt",
                                         fetch_queue=22),
    # Commit shares its width between a non-nop head and a run.
    "commit-shared": lambda: straight(
        "li r1, 1\n.repeat 30, nop\naddi r1, r1, 1\nmul r2, r1, r1\n"
        ".repeat 30, nop\nhalt"),
    # Cold code: every L1I line the sled reaches misses and stalls fetch,
    # and three-wide fetch groups end runs mid-group at line ends.
    "icache-miss": lambda: straight(".repeat 100, nop\nhalt", warm=False,
                                    width=3),
    "wrong-path-squash": wrong_path_sled,
    # Runahead exit clears a ROB of merged runs.
    "runahead-exit": lambda: window(1500, "original"),
    "halt-after-sled": lambda: straight(".repeat 9, nop\nhalt"),
    # ``secure`` overrides ``on_pseudo_retire``: one record per nop.
    "secure-sled": lambda: window(1500, "secure"),
}


def observe(core):
    """Run ``core`` traced; ``(stats, dispatch stalls, event digest)``."""
    sink = MemorySink()
    core.trace = sink
    core.run()
    assert core.halted
    stalls = core.dispatch_stalls
    digest = hashlib.sha256(repr(sink.events).encode()).hexdigest()
    return (dataclasses.asdict(core.stats),
            {"steps": stalls.steps, "skipped": stalls.skipped}, digest)


def rob_stalls(steps, skipped):
    """Dispatch stalls with only ROB-full steps (``DispatchStalls``)."""
    return {"steps": dict.fromkeys(STALL_REASONS, 0) | {"rob": steps},
            "skipped": dict.fromkeys(STALL_REASONS, 0) | {"rob": skipped}}


#: ``(CoreStats, DispatchStalls, event digest)`` of each case, recorded
#: from the core that built one record per nop.  Every case stalls
#: only on the ROB (or not at all).
EXPECTED = {
    'rob-split': (
        {'cycles': 354, 'committed': 405, 'fetched': 405, 'dispatched': 405,
         'issued': 3, 'squashed': 0, 'branch_mispredicts': 0,
         'fence_stalls': 4, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 0},
        rob_stalls(1, 88),
        'f245d4866f32db2831e3282daa116e97'
        '1545fbeb5b63b64c666e23731c95bda3'),
    'fetch-room-split': (
        {'cycles': 61, 'committed': 201, 'fetched': 201, 'dispatched': 201,
         'issued': 0, 'squashed': 0, 'branch_mispredicts': 0,
         'fence_stalls': 0, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 0},
        rob_stalls(0, 0),
        '90c4ff1aa88d85d73a740221f6f00ffd'
        '88e37a161208f3be323b73bf28c92088'),
    'commit-shared': (
        {'cycles': 25, 'committed': 64, 'fetched': 64, 'dispatched': 64,
         'issued': 3, 'squashed': 0, 'branch_mispredicts': 0,
         'fence_stalls': 0, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 0},
        rob_stalls(0, 0),
        '08a6ddb57c32aa6ca749fb5292cbaef3'
        'b9b4e63043580b41e1eab953c93767e7'),
    'icache-miss': (
        {'cycles': 1732, 'committed': 101, 'fetched': 101, 'dispatched': 101,
         'issued': 0, 'squashed': 0, 'branch_mispredicts': 0,
         'fence_stalls': 0, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 0},
        rob_stalls(0, 0),
        '3fad0108708b4253fa9a378c53f8d064'
        '991ae779f8aa6fff14a0999dd0cd3f35'),
    'wrong-path-squash': (
        {'cycles': 262, 'committed': 6, 'fetched': 284, 'dispatched': 260,
         'issued': 4, 'squashed': 254, 'branch_mispredicts': 1,
         'fence_stalls': 4, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 254},
        rob_stalls(1, 88),
        '121b08a2ce571ef515160ffa8db15764'
        'c744ccbcf1be30fb9af28089807d125b'),
    'runahead-exit': (
        {'cycles': 642, 'committed': 1505, 'fetched': 2500,
         'dispatched': 2476, 'issued': 4, 'squashed': 7,
         'branch_mispredicts': 0, 'fence_stalls': 4, 'runahead_episodes': 1,
         'runahead_cycles': 241, 'pseudo_retired': 964, 'inv_branches': 0,
         'inv_instructions': 0, 'runahead_prefetches': 0,
         'filtered_instructions': 0, 'vector_prefetches': 0,
         'transient_executed': 971},
        rob_stalls(0, 0),
        '4ee6ac7d0baa2cc49593c1a70ca623f4'
        'bebc98f61ba5c3f0142d51175a0fd1b4'),
    'halt-after-sled': (
        {'cycles': 9, 'committed': 10, 'fetched': 10, 'dispatched': 10,
         'issued': 0, 'squashed': 0, 'branch_mispredicts': 0,
         'fence_stalls': 0, 'runahead_episodes': 0, 'runahead_cycles': 0,
         'pseudo_retired': 0, 'inv_branches': 0, 'inv_instructions': 0,
         'runahead_prefetches': 0, 'filtered_instructions': 0,
         'vector_prefetches': 0, 'transient_executed': 0},
        rob_stalls(0, 0),
        '68d91350cd79be9ab08a8d793cbaf28d'
        '02e24668c8dd2a42ee45ce9fbbcfa23d'),
    'secure-sled': (
        {'cycles': 642, 'committed': 1505, 'fetched': 2500,
         'dispatched': 2476, 'issued': 4, 'squashed': 7,
         'branch_mispredicts': 0, 'fence_stalls': 4, 'runahead_episodes': 1,
         'runahead_cycles': 241, 'pseudo_retired': 964, 'inv_branches': 0,
         'inv_instructions': 0, 'runahead_prefetches': 0,
         'filtered_instructions': 0, 'vector_prefetches': 0,
         'transient_executed': 971},
        rob_stalls(0, 0),
        '4ee6ac7d0baa2cc49593c1a70ca623f4'
        'bebc98f61ba5c3f0142d51175a0fd1b4'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nop_runs_match_recording(name):
    stats, stalls, digest = observe(CASES[name]())
    want_stats, want_stalls, want_digest = EXPECTED[name]
    assert stats == want_stats
    assert stalls == want_stalls
    assert digest == want_digest
