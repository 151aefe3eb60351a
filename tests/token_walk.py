"""Matrix literals read one token at a time, each pattern compiled per token.

Reference implementation of dsl._parse_matrix as it stood before the
whole-literal match: a scanner that compiles its pattern on every peek and
expect and skips blanks one character at a time, and the walk over '[[',
entries, ',', ';' and ']]' that checks the shape row by row.  It serves
only as an oracle for dsl._parse_matrix and takes the same arguments, so
a test can swap it in for the new reader.
"""

import re

from rescoh.dsl import DslSyntaxError

_INT = r"-?[0-9]+"


class Cursor:
    """Single-line scanner that reports 1-based columns on failure."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self, pattern: str) -> bool:
        self._skip_ws()
        return re.compile(pattern).match(self.text, self.pos) is not None

    def expect(self, pattern: str, expected: str) -> str:
        self._skip_ws()
        m = re.compile(pattern).match(self.text, self.pos)
        if m is None:
            raise DslSyntaxError(self.lineno, self.pos + 1, expected)
        self.pos = m.end()
        return m.group(0)

    def done(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            raise DslSyntaxError(self.lineno, self.pos + 1, "end of line")


def parse_matrix(cursor, m: int) -> tuple:
    """The m × m literal from cursor.pos to the end of cursor.text."""
    cur = Cursor(cursor.text, cursor.lineno)
    cur.pos = cursor.pos
    cur.expect(r"\[\[", "'[['")
    rows = []
    while True:
        row = [int(cur.expect(_INT, "matrix entry"))]
        while cur.peek(r","):
            cur.expect(r",", "','")
            row.append(int(cur.expect(_INT, "matrix entry")))
        if len(row) != m:
            raise DslSyntaxError(cur.lineno, cur.pos + 1, f"row of {m} entries")
        rows.append(tuple(row))
        if cur.peek(r";"):
            cur.expect(r";", "';'")
            continue
        break
    cur.expect(r"\]\]", "']]'")
    cur.done()
    if len(rows) != m:
        raise DslSyntaxError(cur.lineno, cur.pos + 1, f"{m} matrix rows")
    return tuple(rows)
