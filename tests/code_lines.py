"""Code lines and docstring lines of each module of ``src/vergne``.

Usage, from the root of a checkout:

    python tests/code_lines.py

A code line is a line holding a token other than a comment, a docstring
or layout (a newline, an indent or a dedent); a line a multi-line token
spans counts for each line it spans.  A docstring line is a line that a
docstring's string token spans: the first statement of a module, a class
or a function, when that statement is a string literal.  Prints one line
per module, then the total, as ``code  docstring  name``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vergne"

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    docs: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        (docs if tok.type == tokenize.STRING and tok.start in docstrings else code).update(lines)
    return len(code), len(docs)


def main() -> int:
    total_code = total_docs = 0
    for path in sorted(SRC.glob("*.py")):
        code, docs = count(path.read_text())
        total_code += code
        total_docs += docs
        print(f"{code:6d} {docs:6d}  {path.name}")
    print(f"{total_code:6d} {total_docs:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
