"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment counts as code


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Method docstring."""
        text = """a string that is
        not a docstring"""
        return (self.size
                * math.pi)
'''


def test_counts_only_code_lines():
    # import, class, size, def, the two-line string, the two-line return
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     2  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", f"     3  total {tmp_path}"]
