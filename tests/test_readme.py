"""The README's library quickstart runs as written."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    """The first ```python block under the "Library quickstart" heading."""
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs_and_prints(capsys):
    exec(compile(_quickstart(), str(_README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    iterations, termination, error = lines[0].split()
    assert termination == "tolerance" and float(error) < 1e-6
    assert lines[1].split() == [iterations, error]  # the trace's last record
