"""Count the code lines of the snakefact package, module by module.

A line counts when it holds a token other than a comment and is not part
of a docstring, a string that is the first statement of a module, class or
function.  Blank lines and comment lines do not count.  A string that spans
lines and is not a docstring counts on every line it spans.

    python tools/code_lines.py [PATH ...]

Each PATH is a Python file or a directory of them (not searched
recursively); the default is the package, src/snakefact.  It prints the
count of each file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "snakefact"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [PACKAGE]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        count = code_lines(f.read_text())
        total += count
        print(f"{f.name:<24} {count:>6}")
    print(f"{'total':<24} {total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
