"""Print each ``src/codedpc`` module's code lines and their total.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation).  A docstring here is any string literal that
stands alone as a statement.  Run from the repository root:

    python tests/code_lines.py
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "codedpc"
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The number of code lines in Python ``source``."""
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING:
            before = tokens[i - 1].type if i else tokenize.NEWLINE
            after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
            if before in _LAYOUT and after in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
