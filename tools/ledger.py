"""Count the lines of each Python module as code, docstring, comment or blank.

    python tools/ledger.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py``; the default is
``src/chocnum`` beside this script.  One fixed rule classifies every line:

- docstring: within the span of a string literal that opens a module,
  class or function body, blank lines inside it included;
- blank: otherwise empty after stripping whitespace;
- comment: otherwise starting with ``#`` after stripping whitespace;
- code: every other line, including a code line with a trailing comment.

Only the standard library is used, so the count runs anywhere Python does.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one source file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "chocnum"]
    files = [(f, f.relative_to(root)) if root.is_dir() else (root, root.name)
             for root in roots for f in (sorted(root.rglob("*.py")) if root.is_dir() else [root])]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<32}" + "".join(f"{k:>10}" for k in KINDS))
    for f, name in files:
        counts = count(f)
        print(f"{str(name):<32}" + "".join(f"{counts[k]:>10}" for k in KINDS))
        for k in KINDS:
            total[k] += counts[k]
    print(f"{'total':<32}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
