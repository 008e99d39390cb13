"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.ris.relational.ast import (
    BeginTransaction,
    ColumnDef,
    CommitTransaction,
    CreateIndex,
    CreateTable,
    CreateTrigger,
    Delete,
    DropTable,
    DropTrigger,
    Insert,
    OrderItem,
    RollbackTransaction,
    Select,
    SelectItem,
    SqlAggregate,
    SqlBetween,
    SqlBinary,
    SqlColumn,
    SqlExpr,
    SqlInList,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlParam,
    SqlUnary,
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

_AGGREGATES = {"COUNT", "MIN", "MAX", "SUM"}


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
        if word == "DROP":
            return self.parse_drop()
        if word == "BEGIN":
            self.advance()
            return BeginTransaction()
        if word == "COMMIT":
            self.advance()
            return CommitTransaction()
        if word == "ROLLBACK":
            self.advance()
            return RollbackTransaction()
        raise self.error(f"unsupported statement {word}")

    # -- DDL ---------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.parse_create_table()
        unique = bool(self.accept_keyword("UNIQUE"))
        if self.accept_keyword("INDEX"):
            return self.parse_create_index(unique)
        if unique:
            raise self.error("UNIQUE must be followed by INDEX")
        if self.accept_keyword("TRIGGER"):
            return self.parse_create_trigger()
        raise self.error("expected TABLE, INDEX, or TRIGGER after CREATE")

    def parse_create_table(self) -> CreateTable:
        name = self.expect_ident()
        self.expect_sym("(")
        columns: list[ColumnDef] = []
        checks: list[SqlExpr] = []
        while True:
            if self.accept_keyword("CHECK"):
                self.expect_sym("(")
                checks.append(self.parse_expr())
                self.expect_sym(")")
            else:
                columns.append(self.parse_column_def())
            if not self.accept_sym(","):
                break
        self.expect_sym(")")
        if not columns:
            raise self.error("a table needs at least one column")
        return CreateTable(name, tuple(columns), tuple(checks))

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
        unique = False
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("UNIQUE"):
                unique = True
            else:
                break
        return ColumnDef(name, type_name, primary_key, not_null, unique)

    def parse_create_index(self, unique: bool) -> CreateIndex:
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.expect_sym("(")
        column = self.expect_ident()
        self.expect_sym(")")
        return CreateIndex(name, table, column, unique)

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

    def parse_drop(self) -> Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            return DropTable(self.expect_ident())
        if self.accept_keyword("TRIGGER"):
            return DropTrigger(self.expect_ident())
        raise self.error("expected TABLE or TRIGGER after DROP")

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
        distinct = bool(self.accept_keyword("DISTINCT"))
        items: list[SelectItem] = []
        if self.accept_sym("*"):
            pass  # SELECT * — empty items
        else:
            items.append(self.parse_select_item())
            while self.accept_sym(","):
                items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_where()
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                column = self.expect_ident()
                descending = False
                if self.accept_keyword("DESC"):
                    descending = True
                elif self.accept_keyword("ASC"):
                    pass
                order_by.append(OrderItem(column, descending))
                if not self.accept_sym(","):
                    break
        limit: Optional[int] = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind != "number" or "." in token.text:
                raise SqlSyntaxError(
                    f"LIMIT expects an integer, found {token.text!r}",
                    token.position,
                )
            limit = int(token.text)
        return Select(
            tuple(items), table, where, tuple(order_by), limit, distinct
        )

    def parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias: Optional[str] = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        return SelectItem(expr, alias)

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
            return SqlUnary("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> SqlExpr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "op":
            self.advance()
            op = "!=" if token.text == "<>" else token.text
            return SqlBinary(op, left, self.parse_additive())
        if token.kind == "keyword" and token.upper == "IS":
            self.advance()
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return SqlIsNull(left, negated)
        if token.kind == "keyword" and token.upper == "NOT":
            # x NOT IN (...) / x NOT BETWEEN ... / x NOT LIKE ...
            save = self.index
            self.advance()
            if self.accept_keyword("IN"):
                return self.parse_in_list(left, negated=True)
            if self.accept_keyword("BETWEEN"):
                return self.parse_between(left, negated=True)
            if self.accept_keyword("LIKE"):
                return SqlLike(left, self.parse_additive(), negated=True)
            self.index = save
            return left
        if token.kind == "keyword" and token.upper == "IN":
            self.advance()
            return self.parse_in_list(left, negated=False)
        if token.kind == "keyword" and token.upper == "BETWEEN":
            self.advance()
            return self.parse_between(left, negated=False)
        if token.kind == "keyword" and token.upper == "LIKE":
            self.advance()
            return SqlLike(left, self.parse_additive(), negated=False)
        return left

    def parse_between(self, operand: SqlExpr, negated: bool) -> SqlExpr:
        low = self.parse_additive()
        self.expect_keyword("AND")
        high = self.parse_additive()
        return SqlBetween(operand, low, high, negated)

    def parse_in_list(self, operand: SqlExpr, negated: bool) -> SqlExpr:
        self.expect_sym("(")
        values: list[SqlExpr] = [self.parse_expr()]
        while self.accept_sym(","):
            values.append(self.parse_expr())
        self.expect_sym(")")
        return SqlInList(operand, tuple(values), negated)

    def parse_additive(self) -> SqlExpr:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "sym" and token.text in ("+", "-"):
                self.advance()
                left = SqlBinary(token.text, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> SqlExpr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind == "sym" and token.text in ("*", "/"):
                self.advance()
                left = SqlBinary(token.text, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> SqlExpr:
        if self.accept_sym("-"):
            return SqlUnary("-", self.parse_unary())
        return self.parse_atom()

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
        if token.kind == "keyword":
            word = token.upper
            if word == "NULL":
                self.advance()
                return SqlLiteral(None)
            if word == "TRUE":
                self.advance()
                return SqlLiteral(True)
            if word == "FALSE":
                self.advance()
                return SqlLiteral(False)
            if word in _AGGREGATES:
                self.advance()
                self.expect_sym("(")
                if word == "COUNT" and self.accept_sym("*"):
                    self.expect_sym(")")
                    return SqlAggregate("COUNT", None)
                argument = self.parse_expr()
                self.expect_sym(")")
                return SqlAggregate(word, argument)
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
