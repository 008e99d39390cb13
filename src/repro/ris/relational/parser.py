"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.ris.relational.ast import (
    ColumnDef,
    CreateTable,
    CreateTrigger,
    Delete,
    Insert,
    OrderItem,
    Select,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlIsNull,
    SqlLiteral,
    SqlNot,
    SqlParam,
    Statement,
    Update,
)
from repro.ris.relational.errors import SqlSyntaxError
from repro.ris.relational.tokenizer import SqlToken, tokenize_sql

_TYPE_ALIASES = {
    "INT": "INTEGER",
    "INTEGER": "INTEGER",
    "REAL": "REAL",
    "FLOAT": "REAL",
    "TEXT": "TEXT",
    "VARCHAR": "TEXT",
    "BOOLEAN": "BOOLEAN",
    "BOOL": "BOOLEAN",
}

_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}


class _SqlParser:
    def __init__(self, tokens: list[SqlToken]):
        self.tokens = tokens
        self.index = 0
        self.param_count = 0

    # -- plumbing --------------------------------------------------------------

    def peek(self) -> SqlToken:
        return self.tokens[self.index]

    def advance(self) -> SqlToken:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def accept_keyword(self, *words: str) -> Optional[SqlToken]:
        token = self.peek()
        if token.kind == "keyword" and token.upper in words:
            return self.advance()
        return None

    def expect_keyword(self, word: str) -> SqlToken:
        token = self.advance()
        if token.kind != "keyword" or token.upper != word:
            raise SqlSyntaxError(
                f"expected {word}, found {token.text!r}", token.position
            )
        return token

    def accept_sym(self, text: str) -> Optional[SqlToken]:
        token = self.peek()
        if token.kind == "sym" and token.text == text:
            return self.advance()
        return None

    def expect_sym(self, text: str) -> SqlToken:
        token = self.advance()
        if token.kind != "sym" or token.text != text:
            raise SqlSyntaxError(
                f"expected {text!r}, found {token.text!r}", token.position
            )
        return token

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind == "ident":
            return token.text
        # Permit non-reserved-feeling keywords as identifiers where harmless.
        if token.kind == "keyword" and token.upper in ("KEY", "OF", "BY"):
            return token.text
        raise SqlSyntaxError(
            f"expected an identifier, found {token.text!r}", token.position
        )

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(f"{message} (near {token.text!r})", token.position)

    # -- statement dispatch -------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.kind != "keyword":
            raise self.error("expected a statement keyword")
        word = token.upper
        if word == "SELECT":
            return self.parse_select()
        if word == "INSERT":
            return self.parse_insert()
        if word == "UPDATE":
            return self.parse_update()
        if word == "DELETE":
            return self.parse_delete()
        if word == "CREATE":
            return self.parse_create()
        raise self.error(f"unsupported statement {word}")

    # -- DDL ---------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.parse_create_table()
        if self.accept_keyword("TRIGGER"):
            return self.parse_create_trigger()
        raise self.error("expected TABLE or TRIGGER after CREATE")

    def parse_create_table(self) -> CreateTable:
        name = self.expect_ident()
        self.expect_sym("(")
        columns = [self.parse_column_def()]
        while self.accept_sym(","):
            columns.append(self.parse_column_def())
        self.expect_sym(")")
        return CreateTable(name, tuple(columns))

    def parse_column_def(self) -> ColumnDef:
        name = self.expect_ident()
        type_token = self.advance()
        type_name = _TYPE_ALIASES.get(type_token.upper)
        if type_token.kind != "keyword" or type_name is None:
            raise SqlSyntaxError(
                f"unknown column type {type_token.text!r}", type_token.position
            )
        if type_token.upper == "VARCHAR" and self.accept_sym("("):
            self.advance()  # the length, which we accept and ignore
            self.expect_sym(")")
        primary_key = False
        not_null = False
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            else:
                break
        return ColumnDef(name, type_name, primary_key, not_null)

    def parse_create_trigger(self) -> CreateTrigger:
        name = self.expect_ident()
        self.expect_keyword("AFTER")
        op_token = self.advance()
        if op_token.kind != "keyword" or op_token.upper not in (
            "INSERT",
            "UPDATE",
            "DELETE",
        ):
            raise SqlSyntaxError(
                f"expected INSERT, UPDATE, or DELETE, found {op_token.text!r}",
                op_token.position,
            )
        column: Optional[str] = None
        if op_token.upper == "UPDATE" and self.accept_keyword("OF"):
            column = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        return CreateTrigger(name, op_token.upper, table, column)

    # -- DML -----------------------------------------------------------------------

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_sym("("):
            columns.append(self.expect_ident())
            while self.accept_sym(","):
                columns.append(self.expect_ident())
            self.expect_sym(")")
        self.expect_keyword("VALUES")
        rows: list[tuple[SqlExpr, ...]] = []
        while True:
            self.expect_sym("(")
            values: list[SqlExpr] = [self.parse_expr()]
            while self.accept_sym(","):
                values.append(self.parse_expr())
            self.expect_sym(")")
            rows.append(tuple(values))
            if not self.accept_sym(","):
                break
        return Insert(table, tuple(columns), tuple(rows))

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments: list[tuple[str, SqlExpr]] = []
        while True:
            column = self.expect_ident()
            op = self.advance()
            if op.kind != "op" or op.text != "=":
                raise SqlSyntaxError(
                    f"expected '=', found {op.text!r}", op.position
                )
            assignments.append((column, self.parse_expr()))
            if not self.accept_sym(","):
                break
        where = self.parse_where()
        return Update(table, tuple(assignments), where)

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        return Delete(table, self.parse_where())

    def parse_where(self) -> Optional[SqlExpr]:
        if self.accept_keyword("WHERE"):
            return self.parse_expr()
        return None

    # -- SELECT -----------------------------------------------------------------------

    def parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        columns: list[str] = []
        if not self.accept_sym("*"):
            columns.append(self.expect_ident())
            while self.accept_sym(","):
                columns.append(self.expect_ident())
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_where()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                column = self.expect_ident()
                direction = self.accept_keyword("ASC", "DESC")
                descending = direction is not None and direction.upper == "DESC"
                order_by.append(OrderItem(column, descending))
                if not self.accept_sym(","):
                    break
        return Select(tuple(columns), table, where, tuple(order_by))

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self) -> SqlExpr:
        return self.parse_or()

    def parse_or(self) -> SqlExpr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = SqlBinary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> SqlExpr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = SqlBinary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> SqlExpr:
        if self.accept_keyword("NOT"):
            return SqlNot(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> SqlExpr:
        left = self.parse_atom()
        token = self.peek()
        if token.kind == "op":
            self.advance()
            op = "!=" if token.text == "<>" else token.text
            return SqlBinary(op, left, self.parse_atom())
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return SqlIsNull(left, negated)
        return left

    def parse_atom(self) -> SqlExpr:
        token = self.peek()
        if token.kind == "sym" and token.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        if token.kind == "sym" and token.text == "?":
            self.advance()
            param = SqlParam(self.param_count)
            self.param_count += 1
            return param
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return SqlLiteral(value)
        if token.kind == "string":
            self.advance()
            return SqlLiteral(token.text[1:-1].replace("''", "'"))
        if token.kind == "keyword" and token.upper in _CONSTANTS:
            self.advance()
            return SqlLiteral(_CONSTANTS[token.upper])
        if token.kind == "ident":
            self.advance()
            return SqlColumn(token.text)
        raise self.error(f"expected an expression, found {token.text!r}")


@lru_cache(maxsize=256)
def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement (a trailing semicolon is allowed).

    Memoized process-wide by text: the ASTs are frozen and depend on no
    catalog, so every database shares one parse of a given statement.  A
    syntax error is raised anew each time (``lru_cache`` keeps no exceptions).
    """
    parser = _SqlParser(tokenize_sql(sql))
    statement = parser.parse_statement()
    parser.accept_sym(";")
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise SqlSyntaxError(
            f"trailing input after statement: {trailing.text!r}",
            trailing.position,
        )
    return statement
