"""The mutants of tests/mutants.py still name the code they change; no mutant runs here."""

from __future__ import annotations

from pathlib import Path

from mutants import MUTANTS, ROOT

PACKAGE = ROOT / "src" / "seqcast"


def test_each_mutant_changes_one_place_into_code_that_compiles():
    for mutant in MUTANTS:
        text = (PACKAGE / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.label
        assert mutant.new != mutant.old, mutant.label
        # a mutant must fail a test, not the import
        compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")


def test_each_mutant_runs_tests_that_exist():
    for mutant in MUTANTS:
        assert mutant.tests, mutant.label
        for arg in mutant.tests:
            path, _, name = arg.partition("::")
            assert (ROOT / path).is_file(), (mutant.label, arg)
            assert not name or f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), arg


def test_the_mutants_cover_every_module_of_the_package():
    labels = [mutant.label for mutant in MUTANTS]
    assert len(labels) >= 25 and len(set(labels)) == len(labels)
    assert {mutant.file for mutant in MUTANTS} == {p.name for p in PACKAGE.glob("*.py")}
