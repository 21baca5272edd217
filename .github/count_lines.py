"""Count the source lines of the package: one row per module of
``src/kaczmat`` (or of the directory given) with its total lines and its
code lines, then their sums.

Code lines leave out blank lines, comment-only lines and the docstrings of
modules, classes and functions. Run from anywhere:

    python3 .github/count_lines.py [DIR]
"""

import ast
import sys
from pathlib import Path

_DEFAULT = Path(__file__).resolve().parent.parent / "src" / "kaczmat"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that the module, class and function docstrings of
    ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``(total, code)`` lines of the Python source text ``source``."""
    lines = source.splitlines()
    skip = docstring_lines(ast.parse(source))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else _DEFAULT
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]
    if not rows:
        print(f"no Python modules in {root}", file=sys.stderr)
        return 1
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {'total':>6} {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}} {total:>6} {code:>6}")
    print(f"{'sum':<{width}} {sum(row[1] for row in rows):>6} {sum(row[2] for row in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
