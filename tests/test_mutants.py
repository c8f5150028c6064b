"""The mutant catalogue stays applicable: each old text occurs exactly once
and each named test is defined.

The catalogue's runner (`python3 ci/mutants.py`) is a hand run; this test
only keeps its entries from going stale as the code and tests they quote
change.
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
