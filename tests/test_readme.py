"""The README's library quick start runs as written.

Its first ``python`` block is the one reader of ``LatticeSystem.flat_index``
and ``BsdeSolution.value_at``, the documented accessors of a lattice state
and a solved value: run in a temporary directory, its duality assert must
hold and the value it prints must be the backward value of the dense
oracle.
"""

import re
from pathlib import Path

import pytest

from dense import dense_solve

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block():
    match = re.search(r"^```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block"
    return match.group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    code = first_python_block()
    assert "< 1e-12" in code and "print(" in code
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    printed = capsys.readouterr().out.split()
    sys_, flat = scope["sys_"], scope["sys_"].flat_index(0, 1)
    values = dense_solve(sys_, scope["driver"], scope["terminal"])[0]
    assert len(printed) == 1
    assert float(printed[0]) == pytest.approx(values[0, flat], rel=1e-12)
