"""Exception taxonomy for the constraint-management library.

Raw-information-source errors (the errno-like codes translators classify into
metric/logical failures, Section 5 of the paper) live in
:mod:`repro.ris.base`; everything framework-level is defined here.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SpecError(ReproError):
    """An interface, strategy, or guarantee specification is malformed."""


class DslSyntaxError(SpecError):
    """The rule/guarantee DSL text failed to parse.

    Carries the offending position so callers can point at the source.
    """

    def __init__(self, message: str, *, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class CompileError(SpecError):
    """A rule could not be compiled into an executable program.

    Raised by :func:`repro.core.compile.compile_rule` for expression or
    template shapes the compiler does not specialize — an RHS that emits
    a notification, say.  The CM-Shell's ``install`` raises it before
    indexing the rule: a rule the shell cannot run is a malformed
    specification.
    """


class BindingError(ReproError):
    """A rule fired with unbound right-hand-side variables, or a template
    was instantiated with an incomplete interpretation."""


class ConfigurationError(ReproError):
    """The toolkit was wired up inconsistently (unknown site, duplicate
    item registration, strategy referencing an item with no interface, ...)."""


class UnsupportedOperationError(ConfigurationError):
    """A strategy requires a CM-Interface operation the translator for the
    underlying source does not provide (e.g. writing a read-only source)."""


class TraceError(ReproError):
    """An execution trace violates the valid-execution properties of
    Appendix A.2, or was queried inconsistently."""


class CheckError(ReproError):
    """The guarantee checker was given a formula it cannot evaluate."""
