"""SQL tokenizer for the mini relational DBMS."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.ris.relational.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "TABLE", "TRIGGER", "ON", "OF", "AFTER", "PRIMARY", "KEY",
    "NOT", "NULL", "AND", "OR", "IS", "INTEGER", "INT", "REAL", "FLOAT",
    "TEXT", "VARCHAR", "BOOLEAN", "BOOL", "TRUE", "FALSE",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\d+|\.\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<sym>[(),*?;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SqlToken:
    """One SQL token.  ``kind`` is keyword/ident/number/string/op/sym/eof."""

    kind: str
    text: str
    position: int

    @property
    def upper(self) -> str:
        """The token text upper-cased (keyword comparisons)."""
        return self.text.upper()


def tokenize_sql(sql: str) -> list[SqlToken]:
    """Lex SQL text into tokens; comments and whitespace are dropped."""
    tokens: list[SqlToken] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlSyntaxError(
                f"unexpected character {sql[pos]!r} at position {pos}", pos
            )
        kind = match.lastgroup or ""
        text = match.group()
        start = pos
        pos = match.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "ident" and text.upper() in KEYWORDS:
            tokens.append(SqlToken("keyword", text, start))
        else:
            tokens.append(SqlToken(kind, text, start))
    tokens.append(SqlToken("eof", "", pos))
    return tokens
