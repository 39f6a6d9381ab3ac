"""Count the code lines of each module of a package: lines not blank, comment or docstring.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/hlcert beside this tool)

A docstring is the string literal that opens a module, class or function;
all of its lines are skipped.  A comment line is one whose first
non-blank character is '#'.  Prints one "count  module" line per module,
then the total.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "hlcert"


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skipped = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skipped
    )


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else DEFAULT
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
