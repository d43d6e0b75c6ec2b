"""Count the code lines of Python modules: lines without docstrings, comments and blanks.

Usage::

    python tools/code_size.py FILE...

Prints one line: the total over the files, then each file's own count, in
the order given. A line counts when a token other than a comment, a
newline or an indent starts on it or spans it, and it is not part of a
module, class or function docstring (found with ``ast``), so that a
deleted comment or docstring does not read as less code. ROADMAP aim 2
tracks this count for ``src/ebcommit/*.py``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv: list[str]) -> int:
    counts = [(path.name, code_lines(path.read_text(encoding="utf-8")))
              for path in map(pathlib.Path, argv)]
    each = ", ".join(f"`{name}` {n}" for name, n in counts)
    print(f"  - {sum(n for _, n in counts)} code lines, without docstrings, comments and blank lines ({each})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
