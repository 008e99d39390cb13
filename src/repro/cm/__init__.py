"""The constraint-management toolkit (Figure 2 of the paper).

Layering, bottom-up:

- Raw Information Sources (:mod:`repro.ris`) expose heterogeneous native
  interfaces (RISI).
- :mod:`repro.cm.translators` — per-source **CM-Translators** present those
  RISIs to the shells as the uniform CM-Interface: read/write requests,
  notifications, enumeration, and failure classification.  Standard
  translators are configured to a concrete source by a **CM-RID**
  (:mod:`repro.cm.rid`).
- :mod:`repro.cm.shell` — **CM-Shells**, one per site: distributed rule
  engines executing the installed strategy, holding shell-private data
  (:mod:`repro.cm.store`), and exchanging events over the simulated network.
- :mod:`repro.cm.manager` — the **ConstraintManager** façade: registration,
  interface survey, strategy suggestion (via the proven catalog), rule
  distribution by LHS site, guarantee issuance, and failure bookkeeping
  (:mod:`repro.cm.failures`, :mod:`repro.cm.guarantee_status`).
"""

from repro.cm.dispatch import InstalledRule, RuleIndex
from repro.cm.manager import ConstraintManager, InstalledConstraint, Scenario
from repro.cm.rid import CMRID, ItemBinding
from repro.cm.shell import CMShell
from repro.cm.store import ShellStore
from repro.cm.translator import CMTranslator, ServiceModel
from repro.cm.failures import FailureNotice
from repro.cm.guarantee_status import GuaranteeStatusBoard
from repro.cm.verify import VerificationReport, verify

__all__ = [
    "ConstraintManager",
    "InstalledConstraint",
    "Scenario",
    "CMRID",
    "ItemBinding",
    "CMShell",
    "ShellStore",
    "CMTranslator",
    "ServiceModel",
    "InstalledRule",
    "RuleIndex",
    "FailureNotice",
    "GuaranteeStatusBoard",
    "VerificationReport",
    "verify",
]
