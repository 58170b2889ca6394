"""``scripts/mutants.py`` without running its table: every row still
names source text of this tree, and the runner tells a stale row, a
killed mutant and a survivor apart on a two-file tree."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_row_names_source_text_found_once():
    assert mutants.stale_rows(ROOT, mutants.MUTANTS) == []
    assert len({mutant.name for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_stale_row_reported_before_any_test_runs(tmp_path, monkeypatch):
    (tmp_path / "doubling.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    rows = [mutants.Mutant("gone", "doubling.py", "y = 1\n", "y = 2\n", ("t",)),
            mutants.Mutant("twice", "doubling.py", "x = 1\n", "x = 2\n", ("t",)),
            mutants.Mutant("no-file", "other.py", "x", "y", ("t",))]

    def no_tests(tree, test):
        raise AssertionError("a stale table must not run tests")

    monkeypatch.setattr(mutants, "run_test", no_tests)
    assert mutants.check(tmp_path, rows) == [
        "stale row gone: source text found 0 times in doubling.py, not once",
        "stale row twice: source text found 2 times in doubling.py, not once",
        "stale row no-file: other.py does not exist",
    ]


def test_killed_and_surviving_rows_told_apart(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "doubling.py").write_text("def double(x):\n    return 2 * x  # twice\n", encoding="utf-8")
    (tmp_path / "test_doubling.py").write_text(
        "from doubling import double\n\ndef test_double():\n    assert double(3) == 6\n", encoding="utf-8")
    test = "test_doubling.py::test_double"
    rows = [mutants.Mutant("wrong", "src/doubling.py", "2 * x", "3 * x", (test,)),
            mutants.Mutant("comment", "src/doubling.py", "# twice", "# two times", (test,))]
    logged = []
    assert mutants.check(tmp_path, rows, logged.append) == [f"comment survives {test} (pytest exit 0)"]
    assert logged == ["wrong: killed", "comment: survived"]
    assert "2 * x  # twice" in (tmp_path / "src" / "doubling.py").read_text(encoding="utf-8")
