"""Count the code lines of Python sources: lines that hold a code token.

A line counts when some token on it is neither a comment, a docstring, a
newline nor an indentation change, so blank lines, comment lines and the
lines of docstrings (a string that is a statement of its own) are left
out.  A statement continued over several lines counts each line that
holds one of its tokens.

    python tests/code_lines.py

counts the *.py files under src/, next to this file's directory, and
prints one count per file, then the total on the last line.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path
from typing import Set

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
# what precedes a docstring: the start of the file or of a statement
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold a code token."""
    with open(path, "rb") as file:
        tokens = [tok for tok in tokenize.tokenize(file.readline)
                  if tok.type not in _SKIPPED]
    lines: Set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        before = tokens[i - 1].type if i else None
        after = tokens[i + 1].type if i + 1 < len(tokens) else None
        if (tok.type == tokenize.STRING and before in _STATEMENT_START
                and after in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
