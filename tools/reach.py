#!/usr/bin/env python
"""Reach audit: which functions of ``src/repro`` do the entry points enter?

Runs every supported entry point (the *roots*) with a call profiler in
each Python process, forked workers included, and reports the functions
in ``src/repro`` that no root entered.  Tests are not a root: code that
only a test calls is dead weight the audit is meant to find.

The roots:

* every preset through ``repro sweep`` (full tier, or the quick tier
  with ``--quick``), twice over one fresh result cache, so the second
  pass is served from it;
* the other CLI commands CI runs: ``report`` (of a preset and of a
  saved ``--out`` file), ``cache``, ``attack``, ``run extract``,
  ``verify``, ``obs record/view`` and ``campaign
  run/status/resume/serve`` (every endpoint read once);
* every ``examples/*.py --quick``;
* the four perfbench workloads, untraced and traced (``--scale 0.3``,
  ``0.1`` with ``--quick``).

Each process notes the code object of every Python call it makes
(``sys.setprofile`` and ``threading.setprofile``, so it runs on CPython
3.10 and later) and appends a ``src/repro`` function to one shared
file at its first call.  The hook is a ``sitecustomize`` module put
first on ``PYTHONPATH``, so every ``python`` a root starts loads it.  A
process ``multiprocessing`` forks inherits the hook, its open file and
its set of functions already written, so a campaign worker counts
even when the campaign kills it (at a timeout or an abort).

``tools/reach_keep.txt`` names the unreached functions that stay on
purpose, one ``module:qualname`` and a one-line reason per line; only
a ``[reference]`` or ``[protocol]`` entry may be an ``fnmatch``
pattern.  Run from the repository root::

    python tools/reach.py                   # full tier, report only
    python tools/reach.py --quick --check   # CI: fail on an unkept function

Each root's run time goes to stderr as it finishes.  With ``--check``
the exit status is 1 when an unreached function matches no keep entry,
or a keep entry matches no function at all.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KEEP = ROOT / "tools" / "reach_keep.txt"
WORKLOADS = ("sim-sweep", "leak-extract", "verify-xcheck", "campaign-mixed")

#: Loaded by every Python process a root starts (see the module doc).
#: A code object's first call appends one line to the shared calls
#: file; the write is a single ``O_APPEND`` write, so processes that
#: share the file never interleave within a line.
HOOK = '''\
import os
import sys
import threading

_seen = set()
_prefix = os.environ["REPRO_REACH_SRC"]
_out = os.open(os.environ["REPRO_REACH_OUT"],
               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_prefix):
                os.write(_out, f"{code.co_filename}\\t{code.co_firstlineno}"
                               f"\\t{code.co_name}\\n".encode())


threading.setprofile(_profile)
sys.setprofile(_profile)
'''


#: ``campaign serve`` as CI drives it: start the server on a free port,
#: read every endpoint once (plus one HEAD), then stop it with SIGTERM.
SERVE = """
import re, subprocess, sys, urllib.request
proc = subprocess.Popen([sys.executable, "-m", "repro", "campaign", "serve",
                         sys.argv[1], "--port", "0", "--dashboard"],
                        stderr=subprocess.PIPE, text=True)
try:
    url = re.search(r"http://[^ ]+", proc.stderr.readline()).group(0)
    for path in ("/", "/status", "/manifest", "/healthz", "/metrics",
                 "/timeline", "/dashboard", "/result/ablations"):
        urllib.request.urlopen(url + path, timeout=60).read()
    urllib.request.urlopen(urllib.request.Request(url + "/status",
                                                  method="HEAD"), timeout=60)
finally:
    proc.terminate()
    proc.wait()
"""


class Function(NamedTuple):
    name: str           # "repro.pkg.module:Qual.name"
    path: str           # absolute source path
    first: int          # first line, decorators included (co_firstlineno)
    last: int
    code_name: str      # the def's own name (co_name)


def functions(src: pathlib.Path = SRC) -> List[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    found: List[Function] = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found.append(Function(f"{module}:{qualname}", str(path),
                                          first, child.end_lineno,
                                          child.name))
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def roots(quick: bool, scratch: pathlib.Path) -> List[List[str]]:
    """The commands the audit runs, in order (see the module doc)."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    presets = subprocess.run(repro + ["sweep", "--list"], check=True,
                             capture_output=True, text=True, cwd=ROOT,
                             env=_env(scratch)).stdout.split("\n")
    presets = [line.split()[0] for line in presets if line.strip()]
    tier = ["--quick"] if quick else []
    commands = []
    for _ in range(2):          # cold, then served from the cache
        commands += [repro + ["sweep", p, *tier, "--workers", "2"]
                     for p in presets]
    evt, camp, saved = (str(scratch / name)
                        for name in ("mcf.evt", "camp", "fig12.json"))
    commands += [
        repro + ["sweep", "--list"],
        repro + ["report", "fig9"],
        repro + ["sweep", "fig12", "--quick", "--out", saved],
        repro + ["report", saved],
        repro + ["cache"],
        repro + ["attack", "--secret", "SPECRUN", "--trials", "5",
                 "--min-success", "1"],
        repro + ["attack", "--secret", "OK", "--receiver", "prime-probe",
                 "--trials", "5", "--jitter", "12", "--evict-rate", "0.01",
                 "--pollute-rate", "0.01", "--min-success", "1"],
        repro + ["attack", "--secret", "OK", "--cores", "3", "--corunner",
                 "lbm", "--receiver", "prime-probe", "--trials", "5",
                 "--no-noise", "--min-success", "1"],
        repro + ["run", "extract", 'secret="HI"', "receiver=evict-reload",
                 "trials=3", 'noise={"jitter": 24, "evict_rate": 0.04}'],
        repro + ["run", "extract", 'secret="HI"', "receiver=prime-probe",
                 "trials=3", "cores=2", "corunner=lbm", "smt=true"],
        repro + ["run", "attack", "variant=pht", "runahead=original",
                 "--no-cache"],
        repro + ["verify", "stale-store"],
        repro + ["verify", "pht", "--defense", "branch-skip"],
        repro + ["verify", "stale-store", "--cross-check"],
        repro + ["verify", "gen:spec:17", "--cross-check"],
        repro + ["obs", "record", "mcf", "--runahead", "original",
                 "--out", evt],
        repro + ["obs", "view", evt],
        repro + ["obs", "view", evt, "--html", str(scratch / "mcf.html")],
        repro + ["campaign", "run", "ablations", "--quick", "--dir", camp,
                 "--workers", "2"],
        repro + ["campaign", "status", camp],
        repro + ["campaign", "status", camp, "--json"],
        repro + ["campaign", "resume", camp, "--workers", "2"],
        [py, "-c", SERVE, camp],
    ]
    commands += [[py, str(example), "--quick"]
                 for example in sorted((ROOT / "examples").glob("*.py"))]
    scale = "0.1" if quick else "0.3"
    commands += [[py, "perfbench/run.py", "--workload", workload, "--seed",
                  "1", "--seconds", "0", "--trace", trace_flag, "--scale",
                  scale]
                 for workload in WORKLOADS for trace_flag in ("0", "1")]
    return commands


def _env(scratch: pathlib.Path, *first: pathlib.Path) -> Dict[str, str]:
    """The roots' environment: ``first``, then ``src``, ahead of any
    ``PYTHONPATH``, and a result cache of their own in ``scratch``."""
    env = dict(os.environ)
    paths = [*first, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else [])
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env.pop("REPRO_NO_CACHE", None)
    return env


def probe(quick: bool) -> Set[Tuple[str, int, str]]:
    """Run every root under the hook; see :func:`record`."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = pathlib.Path(tmp)
        return record(roots(quick, scratch), scratch)


def record(commands, scratch: pathlib.Path) -> Set[Tuple[str, int, str]]:
    """Run ``commands`` from the repository root under the hook, with
    the result cache in ``scratch``, printing each one's run time to
    stderr; return (path, first line, name) of every ``src/repro`` code
    object a process entered."""
    hook_dir, out = scratch / "hook", scratch / "calls.tsv"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = _env(scratch, hook_dir)
    env["REPRO_REACH_SRC"] = str(SRC / "repro") + os.sep
    env["REPRO_REACH_OUT"] = str(out)
    for command in commands:
        shown = " ".join(pathlib.Path(part).name if i == 0 else
                         "<script>" if "\n" in part else part
                         for i, part in enumerate(command))
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        print(f"  {time.perf_counter() - started:6.1f} s  {shown}",
              file=sys.stderr)
        # ``verify`` exits 1 on a reported leak: not a failure here.
        if done.returncode not in (0, 1) or (
                done.returncode and command[3:4] != ["verify"]):
            raise SystemExit(f"reach: root failed (exit "
                             f"{done.returncode}): {shown}\n"
                             f"{done.stderr[-2000:]}")
    reached = set()
    if out.exists():
        for row in out.read_text(encoding="utf-8").splitlines():
            path, line, name = row.split("\t")
            reached.add((path, int(line), name))
    return reached


def load_keep(path: pathlib.Path) -> Dict[str, str]:
    """Keep patterns -> reasons.  A line without a reason, or whose
    reason does not open with a tag the file's header documents (a
    ``#   [tag]`` comment line), is an error."""
    keep, tags = {}, set()
    for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            tag = re.match(r"#\s+(\[[\w-]+\])\s", line)
            if tag and not keep:
                tags.add(tag.group(1))
            continue
        if not line:
            continue
        pattern, _, reason = line.partition(" ")
        reason = reason.strip()
        if not reason:
            raise SystemExit(f"{path}:{number}: {pattern} has no reason")
        if any(c in pattern for c in "*?[") and not reason.startswith(
                ("[reference]", "[protocol]")):
            raise SystemExit(f"{path}:{number}: {pattern}: only "
                             f"[reference] and [protocol] entries may be "
                             f"patterns")
        if reason.split()[0] not in tags:
            raise SystemExit(f"{path}:{number}: {pattern}: the reason "
                             f"must open with a tag the header documents "
                             f"({' '.join(sorted(tags))})")
        keep[pattern] = reason
    return keep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="quick-tier presets, perfbench at scale 0.1")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function that "
                             "tools/reach_keep.txt does not name")
    args = parser.parse_args(argv)

    every = functions()
    reached = probe(args.quick)
    unreached = [f for f in every
                 if (f.path, f.first, f.code_name) not in reached]
    lines = {(f.path, n) for f in unreached
             for n in range(f.first, f.last + 1)}
    print(f"reach: {len(every) - len(unreached)} of {len(every)} functions "
          f"in src/repro reached; {len(unreached)} unreached "
          f"({len(lines)} lines)")
    unreached_set = set(unreached)
    by_package: Dict[str, List[int]] = {}
    for f in every:
        parts = f.name.partition(":")[0].split(".")
        counts = by_package.setdefault(parts[1] if len(parts) > 1
                                       else parts[0], [0, 0])
        counts[0] += 1
        counts[1] += f in unreached_set
    for package, (total, missed) in sorted(by_package.items()):
        print(f"  {package:<12} {total - missed:>4} of {total:>4} reached")

    keep = load_keep(KEEP)
    unkept = [f for f in unreached
              if not any(fnmatch.fnmatchcase(f.name, p) for p in keep)]
    stale = [p for p in keep
             if not any(fnmatch.fnmatchcase(f.name, p) for f in every)]
    print(f"reach: {len(unreached) - len(unkept)} unreached functions kept "
          f"by {KEEP.name}, {len(unkept)} not kept")
    for f in unkept:
        rel = pathlib.Path(f.path).relative_to(ROOT)
        print(f"  unreached: {f.name}  ({rel}:{f.first})")
    for pattern in stale:
        print(f"  stale keep entry (no such function): {pattern}")
    return 1 if args.check and (unkept or stale) else 0


if __name__ == "__main__":
    raise SystemExit(main())
