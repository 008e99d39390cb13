"""Seeded workload generators.

Workloads model the *local applications* of the paper — the programs that
update databases spontaneously, unaware of the constraint manager.  Each
generator schedules ``spontaneous_write`` calls on the simulator; all
randomness comes from named, seeded streams so experiments are reproducible.
"""

from repro.workloads.generators import (
    UpdateStream,
    ValueModel,
    duplicate_heavy,
    random_walk,
)
from repro.workloads.personnel import PersonnelWorkload
from repro.workloads.banking import BankingWorkload
from repro.workloads.inventory import InventoryWorkload

__all__ = [
    "UpdateStream",
    "ValueModel",
    "random_walk",
    "duplicate_heavy",
    "PersonnelWorkload",
    "BankingWorkload",
    "InventoryWorkload",
]
