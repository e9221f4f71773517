"""Host-speed reference for the benchmark's end-to-end timings.

On a shared host the same trial can take anywhere from 1x to 1.8x its
quiet time for tens of seconds at a stretch, which no amount of
repetition inside one run averages out.  The benchmark therefore times
a fixed pure-Python loop (attribute, dict and small-object work, like
the simulator's inner loops) right next to the work it measures, and
scales each measured time by ``REFERENCE_SECONDS / loop time``.
Timings are thus reported in *reference-host* seconds: what the work
would take on a host that runs the loop in ``REFERENCE_SECONDS``.

Measured on a busy 2-CPU sandbox: the loop itself shows the host's two
modes (13.5-14.5 ms quiet, 24-27 ms busy); over 90 s samples the raw
time of one ipc trial varied with a coefficient of variation of
0.20-0.24 and the scaled time with 0.07-0.11.  A loop on the other CPU
does not track the slowdowns (0.21), so the loop runs in the measuring
process, between trials.

The loop is part of the benchmark, not of the program, so no change to
the program can move it.  Standard library only: the launcher uses it
too.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import time

#: Loop time on a quiet 2-CPU x86 sandbox.
REFERENCE_SECONDS = 0.014


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value, link):
        self.value = value
        self.link = link


def loop_seconds(rounds: int = 60_000) -> float:
    """Host seconds of one run of the fixed reference loop."""
    start = time.perf_counter()
    table = {}
    cell = _Cell(0, None)
    acc = 0
    for i in range(rounds):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) + cell.value
        if i & 15 == 0:
            cell = _Cell(acc & 255, cell if i & 255 else None)
        else:
            cell.value = (cell.value + i) & 255
    return time.perf_counter() - start


class TwoCpuProbe:
    """The reference loop timed on both CPUs at once: in this process
    and in a helper process that otherwise sleeps on a pipe.  A campaign
    runs workers on both CPUs, and its slowdowns follow both."""

    def __init__(self):
        helper = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "from calibrate import loop_seconds\n"
                  "for _ in sys.stdin: print(loop_seconds(), flush=True)")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", helper, str(pathlib.Path(__file__).parent)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def loop_seconds(self) -> float:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        own = loop_seconds()
        return (own + float(self.proc.stdout.readline())) / 2

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def scale(seconds: float, loop: float) -> float:
    """``seconds`` measured next to a loop run of ``loop`` seconds, in
    reference-host seconds."""
    return seconds * REFERENCE_SECONDS / loop
