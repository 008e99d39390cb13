"""A from-scratch mini relational DBMS.

This is the reproduction's stand-in for the Sybase/Oracle servers of the
paper: the CM-Translator for relational sources (Section 4.2.1) speaks SQL to
it, declares triggers on it to implement Notify Interfaces, and maps its
error codes to metric/logical failures.

It runs the statement shapes the toolkit sends, and no others:

- DDL: ``CREATE TABLE`` with typed columns, ``PRIMARY KEY`` and
  ``NOT NULL``; ``CREATE TRIGGER name AFTER INSERT / UPDATE [OF col] /
  DELETE ON table``, whose bodies are host callbacks fed the old/new rows
  (how notify interfaces are implemented).
- DML: ``INSERT … VALUES``, ``UPDATE … SET … [WHERE]``, ``DELETE …
  [WHERE]`` with ``?`` placeholders.
- Queries: ``SELECT cols | * FROM table [WHERE] [ORDER BY cols]``.
- ``WHERE`` predicates: comparisons, ``AND`` / ``OR`` / ``NOT`` and
  ``IS [NOT] NULL``, with SQL NULL semantics; ``key = constant`` finds its
  row through the primary key.

Any other statement is a :class:`SqlSyntaxError` (``INVALID_REQUEST``)
raised before it touches a row.

Public entry point: :class:`~repro.ris.relational.database.RelationalDatabase`.
"""

from repro.ris.relational.database import RelationalDatabase, ResultSet
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    SqlError,
    SqlSyntaxError,
)
from repro.ris.relational.triggers import TriggerEvent

__all__ = [
    "RelationalDatabase",
    "ResultSet",
    "SqlError",
    "SqlSyntaxError",
    "CatalogError",
    "ConstraintViolationError",
    "TriggerEvent",
]
