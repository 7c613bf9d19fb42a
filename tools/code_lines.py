"""Count the code lines of a Python package, as ROADMAP and CHANGES.md quote them.

A code line holds at least one token other than a comment, whitespace or
a string statement (a docstring, or any other string expression standing
alone as a statement).  A string token that is code, such as a
triple-quoted string on the right of an assignment, counts on the line
where it starts.  Blank lines, comment lines and docstring lines do not
count.  Stdlib only.

Usage:

    python3 tools/code_lines.py [DIR]     # DIR defaults to src/kakeya

prints one ``<count> <module>`` line per ``*.py`` file in DIR, sorted by
name, then ``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a code token."""
    # (start, end) of each string statement, as (row, column) pairs
    statements = {
        (node.lineno, node.col_offset): (node.end_lineno, node.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    lines = set()
    skip_to = (0, 0)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start < skip_to or tok.type in _SKIPPED:
            continue
        if tok.start in statements:
            # a statement may join several string tokens: skip to its end
            skip_to = statements[tok.start]
            continue
        lines.add(tok.start[0])
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/kakeya")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.stem}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
