"""The relational CM-Translator (the paper's worked example, Section 4.2).

CM-RID locator keys per item family:

- ``table`` — the table holding the items;
- ``key_column`` — the column identifying the instance (for parameterized
  families the rule parameter supplies its value; plain items fix it with
  ``key``);
- ``value_column`` — the column holding the item's value;
- ``key`` — (plain items only) the fixed key value.

Reads and writes become parameterized SQL exactly as the paper describes
("update employees set salary = b where empid = n"); notify interfaces are
implemented by declaring ``AFTER INSERT/UPDATE OF value_column/DELETE``
triggers on the table.  CM-originated writes do not echo back as
notifications — the notify interface covers *spontaneous* writes only
(``Ws -> N``), so the translator suppresses trigger events caused by its own
write requests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.conditions import evaluate
from repro.core.errors import ConfigurationError
from repro.core.interfaces import InterfaceKind
from repro.core.items import MISSING, DataItemRef, Value
from repro.cm.rid import ItemBinding
from repro.cm.translator import CMTranslator
from repro.ris.relational import RelationalDatabase, TriggerEvent


class _Family(NamedTuple):
    """What one family's locator resolves to, worked out on first use: the
    binding and the four constant statement texts its reads and writes run."""

    binding: ItemBinding
    select: str
    update: str
    insert: str
    delete: str


class RelationalTranslator(CMTranslator):
    """CM-Translator for :class:`~repro.ris.relational.RelationalDatabase`."""

    kind = "relational"

    def __init__(self, source, rid, service=None):
        if not isinstance(source, RelationalDatabase):
            raise ConfigurationError(
                f"RelationalTranslator needs a RelationalDatabase, got "
                f"{type(source).__name__}"
            )
        super().__init__(source, rid, service)
        self.db: RelationalDatabase = source
        self._trigger_count = 0
        self._families: dict[str, _Family] = {}

    # -- locator plumbing ---------------------------------------------------

    def _locator(self, family: str) -> tuple[str, str, str]:
        binding = self.rid.binding(family)
        locator = binding.locator
        for required in ("table", "key_column", "value_column"):
            if required not in locator:
                raise ConfigurationError(
                    f"relational binding for {family!r} lacks {required!r}"
                )
        return locator["table"], locator["key_column"], locator["value_column"]

    def _family(self, name: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            table, key_column, value_column = self._locator(name)
            family = self._families[name] = _Family(
                self.rid.binding(name),
                f"SELECT {value_column} FROM {table} WHERE {key_column} = ?",
                f"UPDATE {table} SET {value_column} = ? WHERE {key_column} = ?",
                f"INSERT INTO {table} ({key_column}, {value_column}) "
                f"VALUES (?, ?)",
                f"DELETE FROM {table} WHERE {key_column} = ?",
            )
        return family

    @staticmethod
    def _key_for(family: _Family, ref: DataItemRef) -> Value:
        binding = family.binding
        if binding.parameterized:
            if len(ref.args) != 1:
                raise ConfigurationError(
                    f"relational families take exactly one parameter; "
                    f"{ref} has {len(ref.args)}"
                )
            return ref.args[0]
        key = binding.locator.get("key")
        if key is None:
            raise ConfigurationError(
                f"plain relational family {ref.name!r} needs a fixed 'key'"
            )
        return key

    # -- native hooks ----------------------------------------------------------

    def _native_read(self, ref: DataItemRef) -> Value:
        family = self._family(ref.name)
        self.count_op("sql_select")
        rows = self.db.query(family.select, (self._key_for(family, ref),))
        if not rows:
            return MISSING
        return rows[0][0]

    def _native_write(self, ref: DataItemRef, value: Value) -> None:
        family = self._family(ref.name)
        key = self._key_for(family, ref)
        if value is MISSING:
            self.count_op("sql_delete")
            self.db.execute(family.delete, (key,))
            return
        self.count_op("sql_update")
        if self.db.execute(family.update, (value, key)).rowcount == 0:
            self.count_op("sql_insert")
            self.db.execute(family.insert, (key, value))

    def _native_enumerate(self, family: str) -> list[DataItemRef]:
        table, key_column, __ = self._locator(family)
        binding = self.rid.binding(family)
        if not binding.parameterized:
            return [DataItemRef(family, ())]
        self.count_op("sql_select")
        rows = self.db.query(f"SELECT {key_column} FROM {table} ORDER BY rowid")
        return sorted(
            (DataItemRef(family, (row[0],)) for row in rows),
            key=lambda r: str(r.args),
        )

    def _setup_native_notify(self, family: str) -> None:
        table, key_column, value_column = self._locator(family)
        binding = self.rid.binding(family)
        interfaces = self.offered_interfaces()
        condition = None
        if interfaces.has(family, InterfaceKind.CONDITIONAL_NOTIFY):
            spec = interfaces.get(family, InterfaceKind.CONDITIONAL_NOTIFY)
            condition = spec.rule.condition

        def on_trigger(event: TriggerEvent) -> None:
            if self._current_spontaneous is None:
                return  # a CM-originated write; Ws -> N does not apply
            row = event.new_row if event.new_row is not None else event.old_row
            assert row is not None
            if binding.parameterized:
                ref = DataItemRef(family, (row[key_column],))
            else:
                if row[key_column] != binding.locator.get("key"):
                    return  # a different row of the shared table
                ref = DataItemRef(family, ())
            if event.operation == "DELETE":
                value: Value = MISSING
            else:
                value = row[value_column]
            if condition is not None and event.operation == "UPDATE":
                old_value = (
                    event.old_row[value_column]
                    if event.old_row is not None
                    else MISSING
                )
                bindings = {"a": old_value, "b": value}
                if not evaluate(condition, bindings):
                    return  # the database filtered this update locally
            self._deliver_notification(ref, value, self._current_spontaneous)

        for operation in ("INSERT", "UPDATE", "DELETE"):
            self._trigger_count += 1
            trigger_name = f"cm_notify_{family}_{operation.lower()}"
            of_clause = (
                f" OF {value_column}" if operation == "UPDATE" else ""
            )
            self.db.execute(
                f"CREATE TRIGGER {trigger_name} AFTER "
                f"{operation}{of_clause} ON {table}"
            )
            self.db.set_trigger_callback(trigger_name, on_trigger)
