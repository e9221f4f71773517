"""Instruction set, assembler, program representation and golden model."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "assembler": ("AssemblyError", "assemble"),
    "builder": ("ProgramBuilder",),
    "instructions": ("INSTR_BYTES", "WORD_BYTES", "FuKind", "Instruction",
                     "Opcode", "to_signed64", "to_unsigned64"),
    "interpreter": ("Interpreter", "InterpreterError", "InterpreterResult",
                    "run_program"),
    "memory_image": ("MemoryImage",),
    "program": ("Program",),
    "registers": ("NUM_ARCH_REGS", "REG_SP", "REG_ZERO", "int_reg",
                  "parse_reg", "reg_class", "reg_name"),
})
