"""scripts/compare_trees.py: the comparison of two trees, and of a tree with
itself, on a tiny matrix."""
from __future__ import annotations

import importlib.util
import os
import shlex
import sys
from pathlib import Path

import pytest

from phasekit import __version__

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_trees",
                                               REPO / "scripts" / "compare_trees.py")
compare_trees = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_trees)
Case = compare_trees.Case

TINY = [Case("synth", ["synth", "--duration", "0.05"]),
        Case("pt", ["pt", "{in}/small.csv", "--alpha", "0.5", "--basis", "dct"]),
        Case("missing", ["pt", "{in}/missing.csv", "--alpha", "0.5"], 2)]


def small_inputs(directory: Path) -> Path:
    directory.mkdir()
    (directory / "small.csv").write_text("t,value\n0,1\n0.5,-2\n1,0.25\n")
    return directory


def test_a_tree_matches_itself(tmp_path, capsys):
    inputs = small_inputs(tmp_path / "in")
    assert compare_trees.compare(REPO, REPO, TINY, inputs, tmp_path) == 0
    out = capsys.readouterr().out
    assert out == ("synth: exit 0\n  out.csv: identical\n"
                   "pt: exit 0\n  out.csv: identical\n"
                   "missing: exit 2\n"
                   "2 of 2 outputs identical; every case passed\n")


def test_a_changed_exit_code_fails_the_comparison(tmp_path, capsys):
    # a tree whose phasekit exits 3 on every command and writes nothing
    broken = fake_tree(tmp_path / "broken",
                       "import sys\nprint('broken', file=sys.stderr)\nsys.exit(3)\n")
    assert compare_trees.compare(REPO, broken, TINY[:1], tmp_path, tmp_path) == 1
    assert capsys.readouterr().out == ("synth: exit 0 -> 3\n"
                                       "  out.csv: only in FIRST\n"
                                       "  FAILED: exit 3, expected 0\n"
                                       "  FAILED: the exit code changed\n"
                                       "  stderr:\n"
                                       "    + broken\n"
                                       "0 of 1 outputs identical; a case failed\n")


def test_describe_reports_the_relative_change(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("# tool = a\nt,x\n0,4\n1,-8\n")
    new.write_text("# tool = b\nt,x\n0,4\n1,-8.000000000000002\n")
    assert compare_trees.describe(old, old) == "identical"
    assert compare_trees.describe(old, new) == "max|delta|/max|out| = 2.22e-16, header differs"
    assert compare_trees.describe(old, tmp_path / "none.csv") == "only in FIRST"
    assert compare_trees.describe(tmp_path / "none.csv", new) == "only in SECOND"
    old.write_text("P5\n2 1\n255\n\x00\x10")
    new.write_text("P5\n2 1\n255\n\x00\x0c")
    assert compare_trees.describe(old.rename(tmp_path / "old.pgm"),
                                  new.rename(tmp_path / "new.pgm")) == "max|delta|/max|out| = 0.25"


def test_standard_output_is_compared(tmp_path, capsys):
    # a tree whose phasekit prints another version
    other = fake_tree(tmp_path / "other", "print('phasekit 9')\n")
    version = [Case("version", ["--version"])]
    assert compare_trees.compare(REPO, REPO, version, tmp_path, tmp_path / "same") == 0
    assert compare_trees.compare(REPO, other, version, tmp_path,
                                 tmp_path / "differs") == 0
    assert capsys.readouterr().out == (
        "version: exit 0\n  stdout: identical\n"
        "1 of 1 outputs identical; every case passed\n"
        f"version: exit 0\n  stdout: differs\n    - phasekit {__version__}\n    + phasekit 9\n"
        "0 of 1 outputs identical; every case passed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_version_to_a_full_device_exits_2(tmp_path, capsys):
    case = Case("version-dev-full", ["--version"], 2, stdout="/dev/full")
    assert case in compare_trees.matrix()
    assert compare_trees.compare(REPO, REPO, [case], tmp_path, tmp_path) == 0
    assert capsys.readouterr().out == ("version-dev-full: exit 2\n"
                                       "0 of 0 outputs identical; every case passed\n")


def fake_tree(root: Path, main: str) -> Path:
    """A tree whose phasekit runs ``main`` as its __main__."""
    package = root / "src" / "phasekit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    return root


def test_check_passes_a_tree_that_keeps_the_contract(tmp_path, capsys):
    # a tree given twice whose phasekit writes the same -o file on every run
    # and exits with the code each case expects
    tree = fake_tree(tmp_path / "same", "import sys\n"
                     "if 'missing' in ' '.join(sys.argv): raise SystemExit(2)\n"
                     "open(sys.argv[sys.argv.index('-o') + 1], 'w').write('t,x\\n0,1\\n')\n")
    inputs = small_inputs(tmp_path / "in")
    assert compare_trees.compare(tree, tree, TINY, inputs, tmp_path) == 0
    assert capsys.readouterr().out == ("synth: exit 0\n  out.csv: identical\n"
                                       "pt: exit 0\n  out.csv: identical\n"
                                       "missing: exit 2\n"
                                       "2 of 2 outputs identical; every case passed\n")


def test_check_fails_a_wrong_exit_code_and_a_traceback(tmp_path, capsys):
    inputs = small_inputs(tmp_path / "in")
    wrong = [Case("missing", TINY[2].argv)]  # expects exit 0
    assert compare_trees.compare(REPO, REPO, wrong, inputs, tmp_path / "wrong") == 1
    tree = fake_tree(tmp_path / "raises", "raise SystemExit(int('x'))\n")
    assert compare_trees.compare(tree, tree, TINY[:1], inputs, tmp_path / "raises") == 1
    out = capsys.readouterr().out.splitlines()
    # each failed case is followed by the standard error of both runs
    assert out[:3] == ["missing: exit 2", "  FAILED: exit 2, expected 0", "  stderr:"]
    assert out[3].startswith(f"    - phasekit: cannot read signal from {inputs}/missing.csv")
    assert out[4].startswith(f"    + phasekit: cannot read signal from {inputs}/missing.csv")
    assert out[5] == "0 of 0 outputs identical; a case failed"
    assert out[6:9] == ["synth: exit 1", "  FAILED: exit 1, expected 0",
                        "  FAILED: a traceback on stderr"]
    assert out[-1] == "0 of 0 outputs identical; a case failed"


def test_check_fails_output_that_differs_between_runs(tmp_path, capsys):
    # a tree whose phasekit writes its process id to the -o file
    tree = fake_tree(tmp_path / "pid", "import os, sys\n"
                     "open(sys.argv[sys.argv.index('-o') + 1], 'w').write(str(os.getpid()))\n")
    assert compare_trees.compare(tree, tree, TINY[:1], tmp_path, tmp_path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "synth: exit 0"
    assert out[1].startswith("  out.csv: max|delta|/max|out| = ")
    assert out[2:] == ["  FAILED: differs between runs: out.csv",
                       "  stderr:", "0 of 1 outputs identical; a case failed"]


def test_two_trees_fail_on_the_second_trees_exit_code_and_traceback(tmp_path, capsys):
    # both trees exit 2 where the case expects 0: the exit code is unchanged
    # but wrong
    exits_2 = [fake_tree(tmp_path / name, "raise SystemExit(2)\n") for name in ("a", "b")]
    assert compare_trees.compare(*exits_2, TINY[:1], tmp_path, tmp_path / "exit") == 1
    # a traceback fails the case in SECOND, not in FIRST alone
    raises = fake_tree(tmp_path / "raises", "raise SystemExit(int('x'))\n")
    exits_1 = fake_tree(tmp_path / "exits", "raise SystemExit(1)\n")
    case = [Case("synth", TINY[0].argv, 1)]
    assert compare_trees.compare(raises, exits_1, case, tmp_path, tmp_path / "first") == 0
    assert compare_trees.compare(exits_1, raises, case, tmp_path, tmp_path / "second") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["synth: exit 2", "  FAILED: exit 2, expected 0", "  stderr:"]
    assert out.count("  FAILED: a traceback on stderr") == 1
    assert [line for line in out if " outputs identical; " in line] == [
        "0 of 0 outputs identical; a case failed", "0 of 0 outputs identical; every case passed",
        "0 of 0 outputs identical; a case failed"]


def test_every_case_runs_with_scipy_hidden(tmp_path, capsys):
    # Python code, and a command of a tree whose phasekit imports scipy
    tree = fake_tree(tmp_path / "scipy", "import scipy\n")
    assert compare_trees.compare(REPO, REPO, [Case("code", ["-c", "import scipy"])], tmp_path,
                                 tmp_path / "code") == 1
    assert compare_trees.compare(tree, tree, TINY[:1], tmp_path, tmp_path / "cli") == 1
    out = capsys.readouterr().out.splitlines()
    assert out.count("  FAILED: a traceback on stderr") == 2
    assert sum("import of scipy halted" in line for line in out) == 4  # both runs of each


def test_main_takes_two_trees_or_one_checked_tree(monkeypatch, capsys):
    for argv in ([], [str(REPO)], ["--check", str(REPO)], [str(REPO)] * 3):
        with pytest.raises(SystemExit):
            compare_trees.main(argv)
        assert "usage: " in capsys.readouterr().err
    calls = stub_compare(monkeypatch)
    assert compare_trees.main([str(REPO), "."]) == 0
    assert calls == [(REPO, Path(".").resolve())]


def stub_compare(monkeypatch) -> list:
    """Stub out the inputs and the runs of main; returns the list that
    collects the (FIRST, SECOND) of each call of compare."""
    calls = []
    monkeypatch.setattr(compare_trees, "write_inputs", lambda directory: None)
    monkeypatch.setattr(compare_trees, "compare",
                        lambda first, second, *_: calls.append((first, second)) or 0)
    return calls


def workflow_python_commands() -> list[list[str]]:
    """The words of each 'python ...' command line that a step of the CI
    workflow runs, the runner's variables left as literal text."""
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    lines = (line.strip().removeprefix("run:").strip() for line in workflow.splitlines())
    return [shlex.split(line) for line in lines if line.startswith("python ")]


def test_every_workflow_python_file_exists():
    # CI has never run, so a renamed or deleted script would go unseen
    files = [words[1] for words in workflow_python_commands() if not words[1].startswith("-")]
    assert "scripts/compare_trees.py" in files
    assert [name for name in files if not (REPO / name).is_file()] == []


def test_every_workflow_command_line_is_accepted(monkeypatch):
    # every run of the script in CI, its arguments with the runner's
    # variables as literal paths
    commands = [words[2:] for words in workflow_python_commands()
                if words[1] == "scripts/compare_trees.py"]
    assert len(commands) == 2
    calls = stub_compare(monkeypatch)
    monkeypatch.chdir(REPO)
    for argv in commands:
        assert compare_trees.main(argv) == 0
    assert calls[-1] == (REPO, REPO)
