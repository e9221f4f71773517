"""One clock: every core runs on ``repro.pipeline.clock.run_clock``.

A static scan of ``src/repro``: the skip rule ``next_step_cycle`` has
exactly one call site, and ``.step()`` is called only in the clock's
module, apart from the ISA interpreter, which steps one architectural
instruction and has no clock.  A second run loop (for one core, a
system or a polling attacker) cannot come back unnoticed.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
CLOCK = "pipeline/clock.py"
#: ``.step()`` call sites that step the ISA interpreter, not a core:
#: (module, receiver).
INTERPRETER_STEPS = {("isa/interpreter.py", "self")}


def call_sites(name):
    """``(module, receiver or None)`` for every call of ``name`` in
    ``src/repro``, as a plain name or as an attribute."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == name:
                sites.append((module, None))
            elif isinstance(func, ast.Attribute) and func.attr == name:
                sites.append((module, ast.unparse(func.value)))
    return sites


def test_skip_rule_has_one_call_site():
    assert call_sites("next_step_cycle") == [(CLOCK, None)]


def test_only_the_clock_steps_a_core():
    sites = call_sites("step")
    assert (CLOCK, "core") in sites
    assert {site for site in sites if site[0] != CLOCK} == INTERPRETER_STEPS
