"""The mutant catalogue stays applicable: each old text occurs exactly once
and each named test is defined.

The catalogue's runner (`python3 ci/mutants.py`) runs in its own CI job;
this test only keeps its entries from going stale as the code and tests
they quote change.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "ci" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_named_tests_exist(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests and mutant.why
    for test in mutant.tests:
        path, *scopes, name = test.split("::")
        assert (ROOT / path).is_file(), test
        source = (ROOT / path).read_text()
        for scope in scopes:
            assert re.search(rf"^\s*class {scope}\b", source, re.M), test
        assert re.search(rf"^\s*def {name.split('[')[0]}\(", source, re.M), test


def test_failed_reads_a_node_id_that_holds_spaces():
    spaced = ("tests/test_config.py::TestValidation::test_bad_value_built_in_python_raises"
              "[SimulateSettings-kwargs13-^simulate.seed must be >= 0]")
    output = (f"FAILED {spaced} - Failed: DID NOT RAISE <class 'ValueError'>\n"
              "FAILED tests/test_training.py::test_a[x]\n"
              "2 failed in 0.12s\n")
    assert mutants._failed(output) == {spaced, "tests/test_training.py::test_a[x]"}
