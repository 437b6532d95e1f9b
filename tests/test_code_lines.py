"""``tools/code_lines.py`` counts code lines: no docstring, comment or blank line."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment line does not count
def f(x):
    """Function docstring."""
    text = """a string that is
    not a docstring"""
    return math.sqrt(x), text


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_the_code_lines_of_a_sample(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout
    # import, def, the two lines of the string, return, class, value
    assert out.split() == ["empty.py", "0", "sample.py", "7", "total", "7"]


def test_counts_the_package_by_default():
    lines = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                           check=True).stdout.splitlines()
    names = [line.split()[0] for line in lines]
    assert names[-1] == "total" and "errors.py" in names
    assert sum(int(line.split()[1]) for line in lines[:-1]) == int(lines[-1].split()[1])
