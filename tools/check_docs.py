#!/usr/bin/env python
"""Docs reference checker: fail on dangling symbols, flags and names.

Scans the markdown docs (``README.md`` + ``docs/*.md``) for references
to the codebase and verifies each one resolves against the *current*
source tree:

* ``repro.foo.bar`` dotted symbols (inline code or code blocks) must
  import — module, or attribute chain on a module;
* ``--flag`` tokens inside code spans must be an option of some
  ``python -m repro`` subcommand (or an explicitly allowlisted
  external flag);
* ``repro <command>`` examples must name a top-level command the
  argument parser actually defines;
* ``repro sweep <name>`` examples must name a real preset, and
  ``repro run <kind>`` a real trial kind;
* ``repro campaign <sub>`` / ``repro obs <sub>`` examples must name
  a subcommand the argument parser actually defines;
* workload/receiver/controller names in ``key=value`` CLI examples
  (``workload=``, ``receiver=``, ``runahead=``, ``corunner=``) must
  resolve through the harness registry;
* ``repro verify <target>`` examples (and ``target=``/``defense=``
  trial params) must name a registered verify target — or a well-formed
  ``gen:<family>:<seed>`` — and a defense the checker knows.

Run from the repository root (CI runs it as the ``docs-check`` step)::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 when every reference resolves; 1 with a per-reference
report otherwise.  Keeping this green is what lets the docs promise
that every named symbol and flag actually exists.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import re
import sys
from typing import Iterable, List, Optional, Set

#: Flags that legitimately appear in docs but belong to external tools.
EXTERNAL_FLAGS = {
    "--cov",          # pytest-cov, mentioned as an optional extra
}

#: Doc files checked, relative to the repository root.
DOC_GLOBS = ("README.md", "docs/*.md")

_CODE_BLOCK = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`\n]+`")
_SYMBOL = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_FLAG = re.compile(r"(?<![\w\-/.])--[a-z][a-z0-9\-]*")
#: ``repro <command>`` / ``python -m repro <command>`` — the top level
#: (``from repro import ...`` is Python, not a command).
_COMMAND = re.compile(r"(?<![\w\-/.])(?<!from )repro ([a-z][a-z0-9\-]*)")
_SWEEP_NAME = re.compile(r"repro sweep ([a-z0-9_]+)")
_RUN_KIND = re.compile(r"repro run ([a-z0-9_]+)")
#: ``repro verify <target>`` — leading dash (flags) and ``<...>``
#: placeholders deliberately don't match.
_VERIFY_TARGET = re.compile(r"repro verify ([a-z][a-z0-9:\-]*)")
#: Command groups whose subcommand names docs may reference.
_GROUPED = ("campaign", "obs")
_GROUP_SUB = re.compile(
    r"repro (" + "|".join(_GROUPED) + r") ([a-z][a-z0-9\-]*)")
_KEYED_NAME = re.compile(
    r"\b(workload|receiver|corunner|runahead|contender|baseline|defense"
    r"|target)"
    r"=([A-Za-z0-9_.:\-]+)")


def _code_spans(text: str) -> str:
    """Concatenate all code regions (fenced blocks + inline spans)."""
    parts = _CODE_BLOCK.findall(text)
    without_blocks = _CODE_BLOCK.sub("", text)
    parts.extend(span.strip("`") for span in
                 _INLINE_CODE.findall(without_blocks))
    return "\n".join(parts)


def _known_flags() -> Set[str]:
    """Every option string of every ``python -m repro`` (sub)parser."""
    from repro.__main__ import build_parser

    flags: Set[str] = set()

    def walk(parser):
        for action in parser._actions:
            flags.update(s for s in action.option_strings
                         if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return flags


def _subparsers(parser) -> dict:
    """Name → subparser of ``parser``'s subcommands (empty if none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _known_subcommands(group: Optional[str] = None) -> Set[str]:
    """Top-level ``python -m repro`` command names, or the subcommand
    names of one command group."""
    from repro.__main__ import build_parser

    parser = build_parser()
    if group is not None:
        parser = _subparsers(parser).get(group)
        if parser is None:
            return set()
    return set(_subparsers(parser))


def _resolve_symbol(symbol: str) -> bool:
    """True when a dotted ``repro.*`` path imports or getattrs."""
    parts = symbol.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _verify_target_ok(name: str) -> bool:
    """True when a ``repro verify`` target resolves (registered or
    a well-formed ``gen:<family>:<seed>`` name)."""
    from repro.harness.runner import resolve_verify_target
    try:
        resolve_verify_target(name)
    except (KeyError, ValueError):
        return False
    return True


def check_file(path: pathlib.Path) -> List[str]:
    from repro.harness import presets
    from repro.harness.registry import CONTROLLERS, get_workload
    from repro.harness.spec import TRIAL_KINDS
    from repro.channel.receiver import RECEIVERS

    problems: List[str] = []
    text = path.read_text(encoding="utf-8")
    code = _code_spans(text)

    for symbol in sorted(set(_SYMBOL.findall(text))):
        if not _resolve_symbol(symbol):
            problems.append(f"{path.name}: dangling symbol `{symbol}`")

    known_flags = _known_flags()
    for flag in sorted(set(_FLAG.findall(code))):
        if flag not in known_flags and flag not in EXTERNAL_FLAGS:
            problems.append(f"{path.name}: unknown CLI flag `{flag}`")

    for name in sorted(set(_SWEEP_NAME.findall(code))):
        if name not in presets.PRESETS:
            problems.append(f"{path.name}: unknown preset "
                            f"`repro sweep {name}`")
    for kind in sorted(set(_RUN_KIND.findall(code))):
        if kind not in TRIAL_KINDS:
            problems.append(f"{path.name}: unknown trial kind "
                            f"`repro run {kind}`")
    for name in sorted(set(_VERIFY_TARGET.findall(code))):
        if not _verify_target_ok(name):
            problems.append(f"{path.name}: unknown verify target "
                            f"`repro verify {name}`")
    commands = _known_subcommands()
    for name in sorted(set(_COMMAND.findall(code))):
        if name not in commands:
            problems.append(f"{path.name}: unknown command "
                            f"`repro {name}`")
    for group, sub in sorted(set(_GROUP_SUB.findall(code))):
        if sub not in _known_subcommands(group):
            problems.append(f"{path.name}: unknown subcommand "
                            f"`repro {group} {sub}`")
    for key, value in sorted(set(_KEYED_NAME.findall(code))):
        if "<" in value or value == "...":
            continue          # placeholders
        if "_" in value or value != value.lower():
            continue          # Python keyword argument, not a CLI name
                              # (registry names are lower-kebab-case)
        if key in ("workload", "corunner"):
            try:
                get_workload(value)
            except KeyError:
                problems.append(f"{path.name}: unknown workload "
                                f"`{key}={value}`")
        elif key == "receiver" and value not in RECEIVERS:
            problems.append(f"{path.name}: unknown receiver "
                            f"`receiver={value}`")
        elif key in ("runahead", "contender", "baseline") \
                and value not in CONTROLLERS:
            problems.append(f"{path.name}: unknown controller "
                            f"`{key}={value}`")
        elif key == "defense":
            from repro.verify.engine import DEFENSES
            if value not in DEFENSES:
                problems.append(f"{path.name}: unknown defense "
                                f"`defense={value}`")
        elif key == "target" and not _verify_target_ok(value):
            problems.append(f"{path.name}: unknown verify target "
                            f"`target={value}`")
    return problems


def doc_files(root: pathlib.Path) -> Iterable[pathlib.Path]:
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()

    checked = 0
    problems: List[str] = []
    for path in doc_files(root):
        checked += 1
        problems.extend(check_file(path))
    if not checked:
        print("docs-check: no doc files found — wrong --root?",
              file=sys.stderr)
        return 1
    if problems:
        print(f"docs-check: {len(problems)} dangling reference(s):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"docs-check: {checked} file(s), all references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
