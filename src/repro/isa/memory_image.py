"""Data-memory layout helper.

The simulated machine has a flat byte-addressed memory holding 8-byte
words.  :class:`MemoryImage` plays the role of a linker's data segment: it
allocates named, aligned regions ("symbols"), lets callers write initial
word values, and hands the result to the simulator's main memory.

Symbols are referenced from assembly via ``@name`` (optionally
``@name+offset``), so gadgets read like the C in Fig. 8 of the paper::

    image = MemoryImage()
    array1 = image.alloc_array("array1", 16)
    image.write_word(array1 + 8, 42)   # array1[1] = 42
"""

from __future__ import annotations

from typing import Dict

from .instructions import WORD_BYTES

DEFAULT_BASE = 0x10_0000
DEFAULT_ALIGN = 64
STACK_SYMBOL = "stack"


class MemoryImage:
    """Initial contents and symbol table for the simulated data memory."""

    def __init__(self, base=DEFAULT_BASE):
        if base % DEFAULT_ALIGN:
            raise ValueError("base address must be cache-line aligned")
        self.symbols: Dict[str, int] = {}
        self._next = base
        self._words: Dict[int, int] = {}

    def alloc(self, name, size_bytes, align=DEFAULT_ALIGN):
        """Allocate ``size_bytes`` for ``name``; returns the base address."""
        if name in self.symbols:
            raise ValueError(f"symbol already allocated: {name}")
        if size_bytes <= 0:
            raise ValueError("allocation size must be positive")
        if align <= 0 or align % WORD_BYTES:
            raise ValueError("alignment must be a positive multiple of 8")
        addr = -(-self._next // align) * align
        self.symbols[name] = addr
        self._next = addr + size_bytes
        return addr

    def alloc_array(self, name, n_words, fill=0, align=DEFAULT_ALIGN):
        """Allocate an array of ``n_words`` 8-byte words, filled with ``fill``."""
        addr = self.alloc(name, n_words * WORD_BYTES, align=align)
        if fill:
            for i in range(n_words):
                self._words[addr + i * WORD_BYTES] = fill
        return addr

    def alloc_stack(self, n_words=256):
        """Allocate a downward-growing stack; returns the initial sp.

        ``call`` pushes the return address at ``sp - 8``; the returned
        pointer is one word past the top of the allocation.
        """
        base = self.alloc(STACK_SYMBOL, n_words * WORD_BYTES)
        return base + n_words * WORD_BYTES

    def address_of(self, name):
        """Return the byte address of a symbol."""
        return self.symbols[name]

    def write_word(self, addr, value):
        """Set the initial value of the aligned word at ``addr``."""
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned word address: {addr:#x}")
        self._words[addr] = value

    def write_words(self, addr, values):
        """Set consecutive word values starting at ``addr``."""
        for i, value in enumerate(values):
            self.write_word(addr + i * WORD_BYTES, value)

    def initial_words(self):
        """Return the mapping of word address to initial value."""
        return dict(self._words)
