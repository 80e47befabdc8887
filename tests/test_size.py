"""The size report of ``tools/size.py``: code lines and settable values of
a small fixture package whose counts are known by hand, and its usage
errors."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

# code lines: import, decorator, class line, two fields, def, two body
# lines, the second def and its return: 10. Settable: b=1, c=None, the
# field y = 0, the os.environ.get read, the os.environ[...] read and d=2: 6.
# The os.environ[...] assignment sets, and reads nothing.
FIXTURE = '''"""Module docstring,
over two lines."""

import os
# a comment line

@dataclass(frozen=True)
class Point:
    """Class docstring."""
    x: int
    y: int = 0  # a trailing comment does not hide the code


def f(a, b=1, *, c=None):
    """Function docstring."""
    os.environ["X"] = os.environ.get("Y", "") + os.environ["Z"]
    return a


def g(d=2):
    return d
'''


def test_fixture_counts():
    assert size.code_lines(FIXTURE) == 10
    assert size.settable_values(FIXTURE) == 6


def test_report_lists_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("X = 1\n\n\ndef h(k=3):\n    return k\n")
    assert size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module  code  settable",
        "a.py       3         1",
        "b.py      10         6",
        "total     13         7",
    ]


def test_the_package_is_measured_by_default():
    names = [name for name, _, _ in size.measure(size.DEFAULT_PACKAGE)]
    assert "__init__.py" in names and "merging.py" in names


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage(flag, capsys):
    assert size.main([flag]) == 0
    out, err = capsys.readouterr()
    assert "python tools/size.py [PACKAGE_DIR]" in out and err == ""


@pytest.mark.parametrize("where", ["missing", "empty", "file.py", "extra"])
def test_a_path_that_is_no_package_exits_2_with_one_line(where, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    (tmp_path / "file.py").write_text("X = 1\n")
    args = [str(tmp_path), "more"] if where == "extra" else [str(tmp_path / where)]
    assert size.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
