"""The docs reference checker stays green and actually catches rot.

``tools/check_docs.py`` is the CI ``docs-check`` gate; running it in
tier-1 keeps local edits honest too, and the negative cases pin that
the checker would really fail on a dangling reference (a checker that
passes everything protects nothing).
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402  (path set up above)


def test_repo_docs_have_no_dangling_references(capsys):
    assert check_docs.main(["--root", str(ROOT)]) == 0
    assert "all references resolve" in capsys.readouterr().out


def test_checker_covers_every_doc_file():
    names = {path.name for path in check_docs.doc_files(ROOT)}
    assert "README.md" in names
    for doc in ("ARCHITECTURE.md", "CHANNELS.md", "EXPERIMENTS.md",
                "PERFORMANCE.md", "WORKLOADS.md"):
        assert doc in names


@pytest.mark.parametrize("snippet,problem", [
    ("see `repro.channel.receiver.WarpReceiver`", "dangling symbol"),
    ("run `python -m repro sweep fig9 --turbo`", "unknown CLI flag"),
    ("run `python -m repro sweep fig99`", "unknown preset"),
    ("try `python -m repro run teleport`", "unknown trial kind"),
    ("pass `workload=spec2077` to the trial", "unknown workload"),
    ("pass `receiver=quantum-probe`", "unknown receiver"),
    ("pass `runahead=vectr`", "unknown controller"),
    ("pass `contender=secrue`", "unknown controller"),
    ("pass `--executor fleet`", "unknown CLI flag"),
    ("run `python -m repro bench-perf`", "unknown command"),
    ("run `python -m repro campaign pause`", "unknown subcommand"),
    ("run `python -m repro obs replay`", "unknown subcommand"),
    ("run `python -m repro trace record mcf`", "unknown command"),
    ("pass `corunner=trace:saved.trace`", "unknown workload"),
])
def test_checker_flags_dangling_references(tmp_path, snippet, problem):
    bad = tmp_path / "BAD.md"
    bad.write_text(f"# Doc\n\n{snippet}\n", encoding="utf-8")
    problems = check_docs.check_file(bad)
    assert problems, snippet
    assert any(problem in entry for entry in problems), problems


def test_checker_accepts_resolvable_references(tmp_path):
    good = tmp_path / "GOOD.md"
    good.write_text(
        "# Doc\n\nUse `repro.harness.run_sweep` via "
        "`python -m repro sweep fig9 --workers 2` or "
        "`python -m repro run ipc workload=trace-mcf`, "
        "`corunner=trace-stream`, `from repro import Core`, then "
        "`python -m repro campaign status campaigns/fig7`.\n",
        encoding="utf-8")
    assert check_docs.check_file(good) == []
