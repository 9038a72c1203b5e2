"""Tests for tools/ledger.py, the line count by kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ledger", ROOT / "tools" / "ledger.py")
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)

SAMPLE = '''"""Module docstring,

over three lines."""

# a comment
X = """not a docstring"""  # code with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        return 1
'''


def test_each_line_gets_one_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert ledger.count(path) == {"code": 4, "docstring": 6, "comment": 1, "blank": 4}


def test_the_kinds_of_the_package_add_up_to_its_lines():
    for path in (ROOT / "src" / "chocnum").glob("*.py"):
        assert sum(ledger.count(path).values()) == len(path.read_text(encoding="utf-8").splitlines()), path.name
