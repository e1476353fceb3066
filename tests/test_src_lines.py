import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""Module docstring,
on two lines."""

import math  # a comment on a code line

# a comment line


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """a string

        that is not a docstring"""
        return (math.pi,
                # a comment inside brackets
                text)
'''


def test_each_line_has_one_kind():
    counts = src_lines.count(MODULE)
    assert counts == {"physical": 20, "docstring": 5, "code": 8, "comment": 2, "blank": 5}


def test_the_table_totals_the_modules(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    rows = src_lines.table(tmp_path)
    assert [name for name, _ in rows] == ["a.py", "sub/b.py", "total"]
    assert rows[1][1] == {"physical": 2, "docstring": 0, "code": 1, "comment": 0, "blank": 1}
    assert rows[2][1]["physical"] == 22 and rows[2][1]["code"] == 9
    assert src_lines.main([str(tmp_path)]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last == ["total", "22", "5", "9", "2", "6"]


def test_the_default_package_is_the_checkouts_from_any_directory(tmp_path):
    # the package next to the tool, not src/polywh under the working directory
    run = subprocess.run([sys.executable, str(TOOL)], cwd=tmp_path, capture_output=True,
                         text=True, check=False)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert "coherent.py" in {row.split()[0] for row in rows}
    total = src_lines.table(TOOL.parents[1] / "src" / "polywh")[-1][1]
    assert rows[-1].split() == ["total", *map(str, total.values())]
