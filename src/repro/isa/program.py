"""Program container: a resolved instruction sequence plus metadata.

A :class:`Program` owns the instruction list (addresses are
``index * INSTR_BYTES``), the label table produced by the assembler, and
optional *branch scope* metadata used by the taint tracker of the defense
(§6 of the paper): for each forward conditional branch the scope is the
fall-through body ``[pc + 4, target)``, i.e. the region executed when the
bounds check passes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .instructions import INSTR_BYTES, PC_SHIFT, Instruction


class Program:
    """An assembled program.

    Parameters
    ----------
    instructions:
        The resolved instruction list.
    labels:
        Mapping of label name to instruction address.
    symbols:
        Mapping of data-symbol name to byte address (shared with the
        :class:`~repro.isa.memory_image.MemoryImage` the program runs
        against).
    """

    def __init__(self, instructions, labels=None, symbols=None):
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        self.symbols: Dict[str, int] = dict(symbols or {})
        # The reference interpreter fetches once per step: cache the
        # bounds once instead of recomputing len() per call.  (The core
        # indexes ``instructions`` itself.)
        self._count = len(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    @property
    def end_pc(self):
        """First address past the last instruction."""
        return len(self.instructions) * INSTR_BYTES

    def fetch(self, pc) -> Optional[Instruction]:
        """Return the instruction at ``pc``, or None past the end.

        ``Core._fetch`` runs this lookup inline; keep the two alike."""
        if pc & (INSTR_BYTES - 1):
            raise ValueError(f"misaligned pc: {pc:#x}")
        index = pc >> PC_SHIFT
        if 0 <= index < self._count:
            return self.instructions[index]
        return None

    def scope_end(self, pc):
        """Return the branch-scope end address for the branch at ``pc``.

        The scope of a forward conditional branch is its fall-through body:
        the instructions executed when the branch is *not taken*, ending at
        the branch target.  Backward and unconditional branches have no
        scope (returns None).  This mirrors the compiler-provided
        ``Bns``/``Bne`` addresses of §6.
        """
        instr = self.fetch(pc)
        if instr is None or not instr.is_conditional_branch():
            return None
        if instr.target is None or instr.target <= pc:
            return None
        return instr.target

    def disassemble(self):
        """Return a human-readable listing of the whole program."""
        addr_to_label = {addr: name for name, addr in self.labels.items()}
        lines = []
        for index, instr in enumerate(self.instructions):
            pc = index * INSTR_BYTES
            label = addr_to_label.get(pc)
            if label is not None:
                lines.append(f"{label}:")
            lines.append(f"  {pc:#06x}: {instr}")
        return "\n".join(lines)
