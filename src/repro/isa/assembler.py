"""Two-pass text assembler.

Syntax overview (one instruction per line, ``#`` starts a comment)::

    # data symbols come from a MemoryImage and are referenced as @name
        li    r1, @array1
    loop:
        load  r2, r1, 0          # r2 = mem[r1 + 0]
        addi  r1, r1, 8
        bne   r2, r0, loop
        clflush r1, 0
        halt

Directives:

* ``label:`` — define a code label (may share a line with an instruction).
* ``.repeat N, <instruction>`` — emit N copies of one instruction (used
  for the nop sleds of Figs. 10 and 11).  The instruction is parsed once
  and the N program slots share one :class:`Instruction` object.

Operand kinds per opcode follow the reference table in
:func:`assemble`'s implementation; immediates accept decimal, hex and
``@symbol[+offset]`` expressions.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import INSTR_BYTES, Instruction, Opcode
from .program import Program
from .registers import REG_SP, parse_reg

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
#: ``@name[+-offset]``, matched from just after the ``@``.
_SYMBOL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)([+-].+)?$")

# Operand signatures: d = dest reg, s = src reg, i = immediate, t = target
# label, o = optional immediate (defaults to 0).
_SIGNATURES = {
    Opcode.LI: "di",
    Opcode.MOV: "ds",
    Opcode.ADD: "dss", Opcode.SUB: "dss", Opcode.AND: "dss",
    Opcode.OR: "dss", Opcode.XOR: "dss", Opcode.SLL: "dss",
    Opcode.SRL: "dss", Opcode.SLT: "dss", Opcode.SLTU: "dss",
    Opcode.MUL: "dss", Opcode.DIV: "dss", Opcode.REM: "dss",
    Opcode.ADDI: "dsi", Opcode.ANDI: "dsi", Opcode.ORI: "dsi",
    Opcode.XORI: "dsi", Opcode.SLLI: "dsi", Opcode.SRLI: "dsi",
    Opcode.SLTI: "dsi", Opcode.MULI: "dsi",
    Opcode.FADD: "dss", Opcode.FSUB: "dss", Opcode.FMUL: "dss",
    Opcode.FDIV: "dss",
    Opcode.FCVT: "ds", Opcode.FMOV: "ds",
    Opcode.VADD: "dss", Opcode.VMUL: "dss",
    Opcode.VSPLAT: "ds", Opcode.VEXTRACT: "dsi",
    Opcode.LOAD: "dso", Opcode.FLOAD: "dso", Opcode.VLOAD: "dso",
    Opcode.STORE: "sso", Opcode.FSTORE: "sso", Opcode.VSTORE: "sso",
    Opcode.CLFLUSH: "so",
    Opcode.BEQ: "sst", Opcode.BNE: "sst", Opcode.BLT: "sst",
    Opcode.BGE: "sst", Opcode.BLTU: "sst", Opcode.BGEU: "sst",
    Opcode.JMP: "t", Opcode.JR: "s",
    Opcode.CALL: "t", Opcode.RET: "",
    Opcode.RDTSC: "d", Opcode.FENCE: "", Opcode.NOP: "", Opcode.HALT: "",
}

#: mnemonic -> (opcode, signature, min operands, max operands).
_FORMS = {op.mnemonic: (op, sig, len(sig.rstrip("o")), len(sig))
          for op, sig in _SIGNATURES.items()}

#: call/ret implicitly push/pop the return address through the stack
#: pointer (the SpectreRSB attack surface).
_STACK_OPS = (Opcode.CALL, Opcode.RET)


class AssemblyError(ValueError):
    """Raised for any syntax or resolution error, with a line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _parse_imm(token, symbols, lineno):
    token = token.strip()
    if token.startswith("@"):
        if symbols is None:
            raise AssemblyError(lineno, f"no symbol table for {token!r}")
        offset = 0
        match = _SYMBOL_RE.match(token, 1)
        if not match:
            raise AssemblyError(lineno, f"bad symbol expression: {token!r}")
        name, tail = match.group(1), match.group(2)
        if name not in symbols:
            raise AssemblyError(lineno, f"unknown symbol: {name!r}")
        if tail:
            try:
                offset = int(tail, 0)
            except ValueError:
                raise AssemblyError(
                    lineno, f"bad symbol offset: {token!r}") from None
        return symbols[name] + offset
    try:
        return int(token, 0)
    except ValueError:
        pass
    lower = token.lower()
    if "." in token or "e" in lower and not lower.startswith("0x"):
        try:
            return float(token)
        except ValueError:
            pass
    raise AssemblyError(lineno, f"bad immediate: {token!r}")


def _split_statements(line):
    """Split a source line into (labels, instruction-text)."""
    code = line.split("#", 1)[0].strip()
    labels = []
    while ":" in code:
        head, _, rest = code.partition(":")
        head = head.strip()
        if not _LABEL_RE.match(head):
            break
        labels.append(head)
        code = rest.strip()
    return labels, code


def _parse_instruction(text, symbols, lineno):
    """Parse one instruction; branch targets stay as label strings."""
    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    form = _FORMS.get(mnemonic)
    if form is None:
        raise AssemblyError(lineno, f"unknown mnemonic: {mnemonic!r}")
    opcode, signature, min_operands, max_operands = form
    operands = []
    if len(parts) > 1 and parts[1].strip():
        operands = [tok.strip() for tok in parts[1].split(",")]

    if not min_operands <= len(operands) <= max_operands:
        raise AssemblyError(
            lineno,
            f"{mnemonic} expects {min_operands}"
            f"{'-' + str(max_operands) if max_operands != min_operands else ''}"
            f" operands, got {len(operands)}")

    dest = None
    srcs = []
    imm = None
    target_label = None
    for kind, token in zip(signature, operands):
        if kind == "d":
            dest = parse_reg(token)
        elif kind == "s":
            srcs.append(parse_reg(token))
        elif kind in "io":
            imm = _parse_imm(token, symbols, lineno)
        elif kind == "t":
            target_label = token
    if "o" in signature and imm is None:
        imm = 0
    return opcode, dest, tuple(srcs), imm, target_label


def _pass1(source):
    """Collect labels and raw statements; ``.repeat`` stays one statement.

    Returns ``(statements, label_table)``: each statement is
    ``(lineno, instruction text, count)`` and labels map to addresses
    counted over every emitted instruction.
    """
    statements: List[Tuple[int, str, int]] = []
    label_table: Dict[str, int] = {}
    count_so_far = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        line_labels, code = _split_statements(line)
        for label in line_labels:
            if label in label_table:
                raise AssemblyError(lineno, f"duplicate label: {label!r}")
            label_table[label] = count_so_far * INSTR_BYTES
        if not code:
            continue
        if code.startswith(".repeat"):
            body = code[len(".repeat"):].strip()
            count_text, _, instr_text = body.partition(",")
            try:
                count = int(count_text.strip(), 0)
            except ValueError:
                raise AssemblyError(
                    lineno, f"bad .repeat count: {count_text!r}") from None
            if count < 0:
                raise AssemblyError(lineno, ".repeat count must be >= 0")
            code = instr_text.strip()
            if not code:
                raise AssemblyError(lineno, ".repeat needs an instruction")
        elif code.startswith("."):
            raise AssemblyError(lineno, f"unknown directive: {code.split()[0]!r}")
        else:
            count = 1
        statements.append((lineno, code, count))
        count_so_far += count
    return statements, label_table


def labels(source):
    """Return the code-label table of ``source`` without assembling it.

    Needs no data symbols, so a builder can resolve code addresses it
    then stores as data before the real :func:`assemble`.
    """
    return _pass1(source)[1]


def assemble(source, symbols=None, memory_image=None):
    """Assemble source text into a :class:`~repro.isa.program.Program`.

    Parameters
    ----------
    source:
        Assembly text.
    symbols:
        Optional mapping of data-symbol name to address.
    memory_image:
        Convenience alternative to ``symbols``: a
        :class:`~repro.isa.memory_image.MemoryImage` whose symbol table is
        used (and whose symbols are recorded on the program).
    """
    if memory_image is not None:
        if symbols is not None:
            raise ValueError("pass either symbols or memory_image, not both")
        symbols = memory_image.symbols
    symbols = dict(symbols or {})
    statements, label_table = _pass1(source)

    # Pass 2: parse and resolve.  Each distinct instruction text (a
    # ``.repeat`` body too) is parsed once and its one (immutable)
    # Instruction fills every slot that spells it.
    instructions = []
    parsed: Dict[str, Instruction] = {}
    for lineno, text, count in statements:
        if not count:
            continue
        instruction = parsed.get(text)
        if instruction is None:
            opcode, dest, srcs, imm, target_label = _parse_instruction(
                text, symbols, lineno)
            if opcode in _STACK_OPS:
                dest = REG_SP
                srcs = (REG_SP,)
            target = None
            if target_label is not None:
                if target_label not in label_table:
                    raise AssemblyError(lineno,
                                        f"unknown label: {target_label!r}")
                target = label_table[target_label]
            instruction = parsed[text] = Instruction(
                opcode=opcode, dest=dest, srcs=srcs, imm=imm, target=target)
        instructions.extend([instruction] * count)
    return Program(instructions, labels=label_table, symbols=symbols)
