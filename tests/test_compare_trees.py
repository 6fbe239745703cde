"""scripts/compare_trees.py: the tree comparison and the one-tree check on a
tiny matrix."""
from __future__ import annotations

import importlib.util
import os
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
                   "2 of 2 outputs identical; every exit code unchanged\n")


def test_a_changed_exit_code_fails_the_comparison(tmp_path, capsys):
    # a tree whose phasekit exits 3 on every command and writes nothing
    broken = fake_tree(tmp_path / "broken",
                       "import sys\nprint('broken', file=sys.stderr)\nsys.exit(3)\n")
    assert compare_trees.compare(REPO, broken, TINY[:1], tmp_path, tmp_path) == 1
    assert capsys.readouterr().out == ("synth: exit 0 -> 3 CHANGED\n"
                                       "  out.csv: only in PARENT\n"
                                       "  stderr differs:\n"
                                       "    + broken\n"
                                       "0 of 1 outputs identical; an exit code changed\n")


def test_describe_reports_the_relative_change(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("# tool = a\nt,x\n0,4\n1,-8\n")
    new.write_text("# tool = b\nt,x\n0,4\n1,-8.000000000000002\n")
    assert compare_trees.describe(old, old) == "identical"
    assert compare_trees.describe(old, new) == "max|delta|/max|out| = 2.22e-16, header differs"
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
        "1 of 1 outputs identical; every exit code unchanged\n"
        f"version: exit 0\n  stdout differs:\n    - phasekit {__version__}\n    + phasekit 9\n"
        "0 of 1 outputs identical; every exit code unchanged\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_version_to_a_full_device_exits_2(tmp_path, capsys):
    case = Case("version-dev-full", ["--version"], 2, stdout="/dev/full")
    assert case in compare_trees.matrix()
    assert compare_trees.compare(REPO, REPO, [case], tmp_path, tmp_path) == 0
    assert capsys.readouterr().out == ("version-dev-full: exit 2\n"
                                       "0 of 0 outputs identical; every exit code unchanged\n")


def fake_tree(root: Path, main: str) -> Path:
    """A tree whose phasekit runs ``main`` as its __main__."""
    package = root / "src" / "phasekit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main)
    return root


def test_check_passes_a_tree_that_keeps_the_contract(tmp_path, capsys):
    inputs = small_inputs(tmp_path / "in")
    assert compare_trees.check(REPO, TINY, inputs, tmp_path) == 0
    assert capsys.readouterr().out == ("synth: exit 0\npt: exit 0\nmissing: exit 2\n"
                                       "3 cases; every case passed\n")


def test_check_fails_a_wrong_exit_code_and_a_traceback(tmp_path, capsys):
    inputs = small_inputs(tmp_path / "in")
    wrong = [Case("missing", TINY[2].argv)]  # expects exit 0
    assert compare_trees.check(REPO, wrong, inputs, tmp_path / "wrong") == 1
    tree = fake_tree(tmp_path / "raises", "raise SystemExit(int('x'))\n")
    assert compare_trees.check(tree, TINY[:1], inputs, tmp_path / "raises") == 1
    out = capsys.readouterr().out.splitlines()
    # each failed case is followed by its standard error, indented
    assert out[:2] == ["missing: exit 2", "  FAILED: exit 2, expected 0"]
    assert out[2].startswith(f"    phasekit: cannot read signal from {inputs}/missing.csv")
    assert out[3] == "1 cases; a case failed"
    assert out[4:7] == ["synth: exit 1", "  FAILED: exit 1, expected 0",
                        "  FAILED: a traceback on stderr"]
    assert out[-1] == "1 cases; a case failed"


def test_check_fails_output_that_differs_between_runs(tmp_path, capsys):
    # a tree whose phasekit writes its process id to the -o file
    tree = fake_tree(tmp_path / "pid", "import os, sys\n"
                     "open(sys.argv[sys.argv.index('-o') + 1], 'w').write(str(os.getpid()))\n")
    assert compare_trees.check(tree, TINY[:1], tmp_path, tmp_path) == 1
    assert capsys.readouterr().out == ("synth: exit 0\n"
                                       "  FAILED: differs between runs: out.csv\n"
                                       "1 cases; a case failed\n")


def test_every_case_runs_with_scipy_hidden(tmp_path, capsys):
    # Python code, and a command of a tree whose phasekit imports scipy
    tree = fake_tree(tmp_path / "scipy", "import scipy\n")
    assert compare_trees.check(REPO, [Case("code", ["-c", "import scipy"])], tmp_path,
                               tmp_path / "code") == 1
    assert compare_trees.check(tree, TINY[:1], tmp_path, tmp_path / "cli") == 1
    out = capsys.readouterr().out.splitlines()
    assert out.count("  FAILED: a traceback on stderr") == 2
    assert sum("import of scipy halted" in line for line in out) == 2


def test_main_takes_two_trees_or_one_checked_tree(capsys):
    for argv in ([], [str(REPO)], ["--check", str(REPO), str(REPO)]):
        with pytest.raises(SystemExit):
            compare_trees.main(argv)
        assert "give PARENT and CHANGE, or --check TREE" in capsys.readouterr().err
