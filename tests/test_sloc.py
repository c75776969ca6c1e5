"""`tools/sloc.py`'s count of code lines."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "sloc.py")
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = "a string that is code"
        return math.sqrt(
            x
        )
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, def, s = ..., and the three lines of the return
    assert sloc.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert sloc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a 1", "b 7", "total 8"]
