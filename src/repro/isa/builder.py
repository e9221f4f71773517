"""Fluent program builder.

Gadget and workload generators compose programs programmatically.  The
builder accumulates assembly text and defers to the (single, well-tested)
assembler, so there is exactly one parsing/resolution path in the library::

    b = ProgramBuilder(image)
    b.li("r1", "@array1")
    b.mark("loop")
    b.load("r2", "r1", 0)
    b.addi("r1", "r1", 8)
    b.bne("r2", "r0", "loop")
    b.halt()
    program = b.build()

Every mnemonic is available as a method; unknown attributes raise
immediately so typos fail at build-construction time rather than assembly
time.
"""

from __future__ import annotations

from typing import List, Optional

from .assembler import assemble
from .instructions import Opcode
from .memory_image import MemoryImage

_MNEMONICS = frozenset(op.mnemonic for op in Opcode)


class ProgramBuilder:
    """Accumulates assembly lines and assembles them on :meth:`build`."""

    def __init__(self, memory_image: Optional[MemoryImage] = None):
        self.memory_image = memory_image
        self._lines: List[str] = []
        self._label_counter = 0

    # -- structural helpers -------------------------------------------------

    def comment(self, text):
        self._lines.append(f"# {text}")
        return self

    def mark(self, name):
        """Place label ``name`` at the current position."""
        self._lines.append(f"{name}:")
        return self

    def fresh_label(self, stem="L"):
        """Return a unique label name."""
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    # -- instruction emission ------------------------------------------------

    def emit(self, mnemonic, *operands):
        """Emit one instruction from mnemonic and operand strings/ints."""
        if mnemonic not in _MNEMONICS:
            raise AttributeError(f"unknown mnemonic: {mnemonic!r}")
        rendered = ", ".join(str(op) for op in operands)
        line = f"    {mnemonic} {rendered}" if rendered else f"    {mnemonic}"
        self._lines.append(line)
        return self

    # -- output ---------------------------------------------------------------

    def source(self):
        """Return the accumulated assembly text."""
        return "\n".join(self._lines) + "\n"

    def build(self):
        """Assemble the accumulated program."""
        return assemble(self.source(), memory_image=self.memory_image)


def _emitter(mnemonic):
    """The :class:`ProgramBuilder` method that emits ``mnemonic``."""
    def method(self, *operands):
        return self.emit(mnemonic, *operands)
    method.__name__ = method.__qualname__ = mnemonic
    return method


for _mnemonic in _MNEMONICS:
    setattr(ProgramBuilder, _mnemonic, _emitter(_mnemonic))
