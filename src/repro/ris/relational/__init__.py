"""The relational RIS, the stand-in for the paper's Sybase/Oracle servers
(Section 4.2.1): an in-memory SQLite database behind a SQL server's API, with
body-less row triggers for Notify Interfaces (:mod:`.database`).
"""

from repro.ris.relational.database import RelationalDatabase, ResultSet, TriggerEvent
from repro.ris.relational.errors import (
    CatalogError,
    ConstraintViolationError,
    SqlError,
    SqlSyntaxError,
)

__all__ = ["RelationalDatabase", "ResultSet", "SqlError", "SqlSyntaxError"]
__all__ += ["CatalogError", "ConstraintViolationError", "TriggerEvent"]
