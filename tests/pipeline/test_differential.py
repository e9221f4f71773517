"""Golden-model differential testing.

Random programs (ALU ops, loads/stores, forward branches, bounded loops)
must produce *identical* architectural end state — registers and memory —
on the functional interpreter and on the out-of-order core.  Timing
differs; architecture must not.  ``rdtsc`` is excluded (explicitly
implementation-defined timing).

This is the single most important invariant in the repository: runahead
(tested in ``tests/runahead/test_differential_runahead.py``) must also
preserve it, because runahead is a pure microarchitectural optimization.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Core, CoreConfig, MemoryImage, assemble, run_program
from repro.isa.registers import NUM_ARCH_REGS, REG_SP
from tests.sim import memory_words

pytestmark = pytest.mark.slow

# A compact register set keeps dependencies dense (more interesting
# schedules) without losing coverage.
_REGS = [f"r{i}" for i in range(1, 8)]
_FREGS = [f"f{i}" for i in range(1, 4)]

_ALU3 = ["add", "sub", "and", "or", "xor", "slt", "sltu", "mul"]
_ALUI = ["addi", "andi", "ori", "xori", "slti", "muli"]
_SHIFT = ["slli", "srli"]


@st.composite
def straightline_block(draw, data_words):
    """One random instruction operating on r1..r7 and the data array."""
    kind = draw(st.sampled_from(
        ["li", "alu3", "alui", "shift", "load", "store", "divrem", "fp",
         "vec"]))
    reg = lambda: draw(st.sampled_from(_REGS))
    if kind == "li":
        return f"li {reg()}, {draw(st.integers(-1000, 1000))}"
    if kind == "alu3":
        return f"{draw(st.sampled_from(_ALU3))} {reg()}, {reg()}, {reg()}"
    if kind == "alui":
        return (f"{draw(st.sampled_from(_ALUI))} {reg()}, {reg()}, "
                f"{draw(st.integers(-64, 64))}")
    if kind == "shift":
        return (f"{draw(st.sampled_from(_SHIFT))} {reg()}, {reg()}, "
                f"{draw(st.integers(0, 8))}")
    if kind == "divrem":
        return f"{draw(st.sampled_from(['div', 'rem']))} {reg()}, {reg()}, {reg()}"
    if kind == "load":
        offset = draw(st.integers(0, data_words - 1)) * 8
        return f"load {reg()}, r10, {offset}"
    if kind == "store":
        offset = draw(st.integers(0, data_words - 1)) * 8
        return f"store {reg()}, r10, {offset}"
    if kind == "fp":
        op = draw(st.sampled_from(["fadd", "fsub", "fmul"]))
        a, b, c = (draw(st.sampled_from(_FREGS)) for _ in range(3))
        return f"{op} {a}, {b}, {c}"
    if kind == "vec":
        return f"vsplat x1, {reg()}"
    raise AssertionError(kind)


@st.composite
def random_program(draw):
    """A program of straight-line blocks, forward branches and one loop."""
    data_words = 16
    lines = [
        "li r10, @data",
        "li r11, 4",          # loop counter
        "fcvt f1, r11",
        "fcvt f2, r10",
    ]
    n_blocks = draw(st.integers(1, 4))
    label_counter = [0]

    def block(depth):
        body = [draw(straightline_block(data_words))
                for _ in range(draw(st.integers(1, 6)))]
        if depth < 2 and draw(st.booleans()):
            # Forward branch over a sub-block.
            label_counter[0] += 1
            label = f"skip_{label_counter[0]}"
            cond = draw(st.sampled_from(["beq", "bne", "blt", "bge"]))
            a, b = draw(st.sampled_from(_REGS)), draw(st.sampled_from(_REGS))
            inner = block(depth + 1)
            body.append(f"{cond} {a}, {b}, {label}")
            body.extend(inner)
            body.append(f"{label}:")
        return body

    for _ in range(n_blocks):
        lines.extend(block(0))

    if draw(st.booleans()):
        # A bounded loop re-running one block.
        loop_body = [draw(straightline_block(data_words))
                     for _ in range(draw(st.integers(1, 4)))]
        lines.append("loop_top:")
        lines.extend(loop_body)
        lines.append("addi r11, r11, -1")
        lines.append("bne r11, r0, loop_top")

    lines.append("halt")
    return "\n".join(lines)


def _image():
    image = MemoryImage()
    addr = image.alloc_array("data", 16)
    image.write_words(addr, [(i * 37 + 5) % 256 for i in range(16)])
    return image


def _normalize_float(value):
    # inf/nan compare oddly through pipelines; normalize representation.
    return repr(value)


def assert_same_architecture(program, image_a, image_b, core):
    reference = run_program(program, memory_image=image_a, max_steps=200_000)
    assert core.halted, "core did not halt"
    for reg in range(NUM_ARCH_REGS):
        if reg == REG_SP:
            continue
        ref, got = reference.registers[reg], core.arch_regs[reg]
        if isinstance(ref, float) or isinstance(got, float):
            assert _normalize_float(ref) == _normalize_float(got), \
                f"register {reg}: {ref!r} != {got!r}"
        else:
            assert ref == got, f"register {reg}: {ref!r} != {got!r}"
    core_memory = memory_words(core.memory)
    keys = set(reference.memory) | set(core_memory)
    for addr in keys:
        ref = reference.memory.get(addr, 0)
        got = core_memory.get(addr, 0)
        if isinstance(ref, float) or isinstance(got, float):
            assert _normalize_float(ref) == _normalize_float(got), \
                f"memory {addr:#x}: {ref!r} != {got!r}"
        else:
            assert ref == got, f"memory {addr:#x}: {ref!r} != {got!r}"


class TestDifferentialOoO:
    @given(random_program())
    @settings(max_examples=80, deadline=None)
    def test_core_matches_interpreter(self, source):
        image_a, image_b = _image(), _image()
        program_a = assemble(source, memory_image=image_a)
        program_b = assemble(source, memory_image=image_b)
        core = Core(program_b, memory_image=image_b,
                    config=CoreConfig.small(), warm_icache=True)
        core.run(max_cycles=400_000)
        assert_same_architecture(program_a, image_a, image_b, core)

    @given(random_program())
    @settings(max_examples=30, deadline=None)
    def test_core_matches_interpreter_paper_config(self, source):
        image_a, image_b = _image(), _image()
        program_a = assemble(source, memory_image=image_a)
        program_b = assemble(source, memory_image=image_b)
        core = Core(program_b, memory_image=image_b,
                    config=CoreConfig.paper(), warm_icache=True)
        core.run(max_cycles=400_000)
        assert_same_architecture(program_a, image_a, image_b, core)


class TestDifferentialPredictors:
    @given(random_program(),
           st.sampled_from(["bimodal", "gshare", "twolevel"]))
    @settings(max_examples=30, deadline=None)
    def test_architecture_independent_of_predictor(self, source, predictor):
        image_a, image_b = _image(), _image()
        program_a = assemble(source, memory_image=image_a)
        program_b = assemble(source, memory_image=image_b)
        config = CoreConfig.small(predictor=predictor)
        core = Core(program_b, memory_image=image_b, config=config,
                    warm_icache=True)
        core.run(max_cycles=400_000)
        assert_same_architecture(program_a, image_a, image_b, core)
