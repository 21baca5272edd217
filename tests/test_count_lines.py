"""The source line count, .github/count_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / ".github" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Point:
    """One line."""

    x: float = 0.0

    def norm(self):
        """Two
        lines."""
        text = """not a docstring
        but code"""
        return math.hypot(self.x, len(text))
'''


def test_counts_leave_out_blanks_comments_and_docstrings():
    # 19 lines: 6 blank, 1 comment-only, 5 of docstrings, 7 of code
    assert count_lines.count(SAMPLE) == (19, 7)


def test_a_string_after_the_first_statement_is_code():
    assert count_lines.count('x = 1\n"""not a docstring"""\n') == (2, 2)


def test_main_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("\n\ny = 2\n")
    assert count_lines.main(["count_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "total", "code"], ["a.py", "19", "7"], ["b.py", "3", "1"],
                    ["sum", "22", "8"]]


def test_main_fails_on_a_directory_without_modules(tmp_path, capsys):
    assert count_lines.main(["count_lines.py", str(tmp_path)]) == 1
    assert "no Python modules" in capsys.readouterr().err
