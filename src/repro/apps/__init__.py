"""Applications that consume the toolkit's guarantees (Section 7.1).

The paper stresses that weakened guarantees are only useful if applications
can actually act on them.  This package models three of the application
patterns the paper discusses:

- :class:`~repro.apps.plotter.PlotterApp` — plots a path from a copied
  position stream; correct iff "Y strictly follows X" holds.
- :class:`~repro.apps.auditor.AuditorApp` — validates past query results
  using the Flag/Tb monitor guarantee (Section 6.3 / 7.1).
- :class:`~repro.apps.analyst.AnalystApp` — a financial-analysis batch job
  that runs inside the periodic-guarantee window (Section 6.4).
"""

from repro.apps.plotter import PlotterApp
from repro.apps.auditor import AuditorApp
from repro.apps.analyst import AnalystApp

__all__ = ["PlotterApp", "AuditorApp", "AnalystApp"]
