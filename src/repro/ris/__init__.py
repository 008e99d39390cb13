"""Raw Information Sources (RIS).

The bottom layer of Figure 2 in the paper: the actual, heterogeneous systems
holding the data.  Each source is implemented from scratch with a genuinely
different native interface (RISI), so the CM-Translators above them have real
heterogeneity to absorb:

- :mod:`repro.ris.relational` — a mini relational DBMS running the SQL the
  relational translator sends, with row triggers (the "Sybase" of the
  paper's examples).
- :mod:`repro.ris.filestore` — a flat-file record store (the "Unix files"
  source): whole-file read/write, no transactions, no triggers.
- :mod:`repro.ris.objectstore` — a small object-oriented store with classes,
  typed attributes and OIDs.
- :mod:`repro.ris.bibliodb` — an append-mostly bibliographic server,
  query-only (drives the referential-integrity scenario).
- :mod:`repro.ris.whois` — a key-to-record directory with lookup-only access.
- :mod:`repro.ris.legacy` — an opaque legacy system whose update feed can
  fail silently (the Section 5 cautionary case).
"""

from repro.ris.base import RawInformationSource, RISError, RISErrorCode

__all__ = [
    "RawInformationSource",
    "RISError",
    "RISErrorCode",
]
