"""``tools/reach.py``, the reach audit: its function table, its keep
list and its call hook (the full audit runs in CI's ``reach-audit``)."""

import fnmatch
import importlib.util
import pathlib
import sys
import textwrap
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach_tool", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def code_objects(path):
    """(path, first line, name) of every code object compiled from a file."""
    found, todo = set(), [compile(path.read_text(encoding="utf-8"),
                                  str(path), "exec")]
    while todo:
        code = todo.pop()
        found.add((code.co_filename, code.co_firstlineno, code.co_name))
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def test_every_def_matches_its_code_object(reach):
    """The audit keys a call by ``co_firstlineno``, which counts the
    decorators: each ``def`` it lists must be a code object the
    interpreter would report under that key."""
    functions = reach.functions()
    compiled = set()
    for path in sorted({f.path for f in functions}):
        compiled |= code_objects(pathlib.Path(path))
    missing = [f.name for f in functions
               if (f.path, f.first, f.code_name) not in compiled]
    assert not missing
    assert len(functions) > 500


def test_keep_entries_have_reasons_and_match_functions(reach):
    keep = reach.load_keep(reach.KEEP)
    names = [f.name for f in reach.functions()]
    stale = [p for p in keep if not fnmatch.filter(names, p)]
    assert not stale
    assert all(reason for reason in keep.values())


def test_keep_line_without_a_reason_is_refused(reach, tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("# comment\nrepro.isa.registers:fp_reg\n")
    with pytest.raises(SystemExit, match="has no reason"):
        reach.load_keep(keep)


#: The tag lines of a keep file's header (tools/reach_keep.txt's, cut down).
HEADER = """\
# Tags:
#   [reference]  the functional reference
#   [protocol]   a Python protocol method
#   [full-tier]  entered only by a preset's full tier
"""


@pytest.mark.parametrize("tag", ["[no-root]", "[madeup]", "no-tag"])
def test_reason_without_a_documented_tag_is_refused(reach, tmp_path, tag):
    """Every kept function names why no root enters it, with one of the
    header's tags; "only tests call it" is not among them."""
    keep = tmp_path / "keep.txt"
    keep.write_text(f"{HEADER}repro.isa.registers:int_reg  {tag} tests\n")
    with pytest.raises(SystemExit, match="tag the header documents"):
        reach.load_keep(keep)
    keep.write_text(f"{HEADER}repro.isa.registers:int_reg  [full-tier] x\n")
    assert reach.load_keep(keep) == {
        "repro.isa.registers:int_reg": "[full-tier] x"}


@pytest.mark.parametrize("reason, refused", [
    ("[no-root] read by tests", True),
    ("[full-tier] the full tier runs it", True),
    ("[reference] interpreter handlers", False),
    ("[protocol] interface stubs", False),
])
def test_only_reference_and_protocol_entries_may_be_patterns(
        reach, tmp_path, reason, refused):
    """A pattern also keeps any function added later that matches it,
    so an entry that is a candidate for deletion must name one function."""
    keep = tmp_path / "keep.txt"
    keep.write_text(f"{HEADER}repro.isa.registers:*_reg  {reason}\n")
    if refused:
        with pytest.raises(SystemExit, match="may be patterns"):
            reach.load_keep(keep)
    else:
        assert reach.load_keep(keep) == {"repro.isa.registers:*_reg": reason}


def test_hook_counts_a_forked_worker_that_is_killed(reach, tmp_path):
    """A campaign ends its workers with SIGKILL: what a forked worker
    entered must be on record before it dies."""
    script = textwrap.dedent("""
        import multiprocessing, time
        from repro.isa.registers import int_reg, reg_name

        def worker(conn):
            reg_name(1)
            conn.send("ready")
            time.sleep(60)

        if __name__ == "__main__":
            int_reg(1)
            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=worker, args=(child,))
            proc.start()
            parent.recv()
            proc.kill()
            proc.join()
    """)
    reached = reach.record([[sys.executable, "-c", script]], tmp_path)
    names = {name for path, _, name in reached
             if path.endswith("registers.py")}
    assert {"int_reg", "reg_name"} <= names
