"""Count each module's code lines: lines with code, not docstrings, comments or blanks.

A docstring is a string expression that is the first statement of a module,
class or function. Usage::

    python tools/code_lines.py [DIR ...]   # default: src/fogstore_sim

prints one ``<lines>  <module>`` row per ``.py`` file under each directory and
a total row per directory. The figure is informational; nothing gates on it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token other than a comment or a docstring."""
    docstrings = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in docstrings)
    return len(lines)


def main(argv: list[str]) -> int:
    for directory in argv or ["src/fogstore_sim"]:
        total = 0
        for path in sorted(Path(directory).rglob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6,}  {path}")
        print(f"{total:6,}  total {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
