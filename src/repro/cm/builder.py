"""Fluent wiring for the ConstraintManager.

The classic wiring API is a multi-step imperative sequence — ``add_site``,
``add_source``, ``declare``, ``suggest``, ``install`` — that every scenario
re-implements.  The builders here collapse that into one chained expression:

    cm = ConstraintManager(Scenario(seed=7))
    (cm.site("san-francisco").source(branch, rid_a)
       .site("new-york").source(hq, rid_b)
       .constraint(CopyConstraint("salary1", "salary2", params=("n",)))
       .strategy("propagation"))

Every builder method returns a builder, and the chain can hop between sites
(:meth:`SiteBuilder.site`) and constraints (:meth:`SiteBuilder.constraint`)
freely; :attr:`manager` recovers the underlying
:class:`~repro.cm.manager.ConstraintManager` at any point.  Builders hold no
state of their own beyond the current site/constraint — everything is applied
to the manager immediately, so mixing fluent and classic calls is safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.constraints import Constraint
from repro.core.catalog import Suggestion
from repro.core.errors import ConfigurationError, SpecError
from repro.core.events import EventKind
from repro.core.rules import Rule
from repro.core.timebase import Ticks
from repro.cm.rid import CMRID
from repro.cm.shell import CMShell
from repro.cm.translator import CMTranslator, ServiceModel
from repro.ris.base import RawInformationSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cm.manager import ConstraintManager, InstalledConstraint


class SiteBuilder:
    """Wiring chained onto one site (create it via ``manager.site(name)``)."""

    def __init__(self, manager: "ConstraintManager", name: str):
        self.manager = manager
        self.name = name

    @property
    def shell(self) -> CMShell:
        """The underlying CM-Shell, for anything the builder doesn't cover."""
        return self.manager.shell(self.name)

    def source(
        self,
        source: RawInformationSource,
        rid: CMRID,
        service: ServiceModel | None = None,
        seed_existing: bool = True,
    ) -> "SiteBuilder":
        """Attach a raw source here via its standard CM-RID translator."""
        self.manager.add_source(
            self.name, source, rid, service, seed_existing=seed_existing
        )
        return self

    def translator(self, translator: CMTranslator) -> "SiteBuilder":
        """Attach a custom (hand-built) translator here.

        Registers the translator's item families at this site — the manual
        ``add_translator`` + ``locations.register`` steps the tutorial used
        to spell out.
        """
        self.shell.add_translator(translator)
        for family in translator.families():
            self.manager.locations.register(family, self.name)
        return self

    def private(self, *families: str) -> "SiteBuilder":
        """Declare shell-private item families living at this site."""
        for family in families:
            self.manager.locations.register(family, self.name)
        return self

    def rule(
        self,
        rule: Rule | str,
        rhs_site: Optional[str] = None,
        *,
        phase: Optional[Ticks] = None,
        name: Optional[str] = None,
    ) -> "SiteBuilder":
        """Install a hand-written strategy rule whose LHS is at this site.

        Accepts a :class:`~repro.core.rules.Rule` or rule-language text.
        The rule passes the same interface survey as catalog installation
        before it is indexed: a WR, RR or N on a family whose source offers
        no such interface, or a W on a database family, raises
        :class:`~repro.core.errors.ConfigurationError` and leaves the shell
        unchanged.  ``rhs_site`` defaults to the registered location of the
        RHS families (falling back to this site for purely private
        right-hand sides); notify-triggered rules get their translator hook
        set up, matching what catalog installation does.
        """
        from repro.core.dsl import parse_rule

        if isinstance(rule, str):
            rule = parse_rule(rule, name=name)
        self.manager._validate_rule_requirements([rule], set())
        if rhs_site is None:
            try:
                rhs_site = rule.resolve_rhs_site(self.manager.locations)
            except (ConfigurationError, SpecError):
                rhs_site = self.name
        self.shell.install(rule, rhs_site, phase=phase)
        if rule.lhs.kind is EventKind.NOTIFY:
            family = rule.lhs.item_family
            if family is not None and family in self.shell.translators:
                self.shell.translator_for(family).setup_notify(family)
        return self

    def site(self, name: str) -> "SiteBuilder":
        """Hop to (or create) another site and keep chaining."""
        return self.manager.site(name)

    def constraint(self, constraint: Constraint) -> "ConstraintBuilder":
        """Start a declare-suggest-install chain for a constraint."""
        return self.manager.constraint(constraint)


class ConstraintBuilder:
    """Declare-suggest-install chained onto one constraint."""

    def __init__(self, manager: "ConstraintManager", constraint: Constraint):
        self.manager = manager
        self.constraint_obj = manager.declare(constraint)
        self.installed: Optional["InstalledConstraint"] = None

    def suggestions(self, **options: Any) -> list[Suggestion]:
        """The applicable proven strategies (escape hatch for inspection)."""
        return self.manager.suggest(self.constraint_obj, **options)

    def strategy(
        self,
        name: Optional[str] = None,
        *,
        native: Optional[dict[str, Any]] = None,
        **options: Any,
    ) -> "ConstraintBuilder":
        """Pick and install a proven strategy.

        ``name`` selects from the suggestion list by (sub)string match on the
        strategy name; omitted, the catalog's best suggestion wins.
        ``options`` go to the suggestion survey (``polling_period``,
        ``rule_delay``, ...); ``native`` holds keyword arguments for native
        protocol construction (e.g. the demarcation initial values).
        """
        suggestions = self.manager.suggest(self.constraint_obj, **options)
        if not suggestions:
            raise ConfigurationError(
                f"no applicable strategy for {self.constraint_obj}; "
                f"check the offered interfaces"
            )
        chosen = self._pick(suggestions, name)
        self.installed = self.manager.install(
            self.constraint_obj, chosen, **(native or {})
        )
        return self

    @staticmethod
    def _pick(suggestions: list[Suggestion], name: Optional[str]) -> Suggestion:
        if name is None:
            return suggestions[0]
        for suggestion in suggestions:
            if suggestion.strategy.name == name:
                return suggestion
        for suggestion in suggestions:
            if name in suggestion.strategy.name:
                return suggestion
        offered = ", ".join(s.strategy.name for s in suggestions)
        raise ConfigurationError(
            f"no suggested strategy matches {name!r}; offered: {offered}"
        )

    @property
    def guarantees(self) -> tuple:
        """The standing guarantees of the installed strategy."""
        if self.installed is None:
            raise ConfigurationError(
                "no strategy installed yet; call .strategy(...) first"
            )
        return self.installed.guarantees

    @property
    def native_protocol(self) -> Any:
        """The installed native protocol object, if the strategy has one."""
        if self.installed is None:
            raise ConfigurationError(
                "no strategy installed yet; call .strategy(...) first"
            )
        return self.installed.native_protocol

    def site(self, name: str) -> SiteBuilder:
        """Hop back to site wiring and keep chaining."""
        return self.manager.site(name)

    def constraint(self, constraint: Constraint) -> "ConstraintBuilder":
        """Chain straight into the next constraint."""
        return self.manager.constraint(constraint)
