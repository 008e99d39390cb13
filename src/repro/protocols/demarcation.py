"""The Demarcation Protocol for inter-site inequality constraints.

Section 6.1 of the paper: for ``X <= Y`` with ``X`` and ``Y`` at different
sites, the protocol maintains local *limit* items ``Lx`` (at X's site) and
``Ly`` (at Y's site) with the three local invariants::

    X <= Lx        (enforced by X's site, using its local constraint manager)
    Ly <= Y        (enforced by Y's site)
    Lx <= Ly       (maintained by the protocol's message discipline)

Together these imply the global guarantee ``X <= Y`` **at all times**, with
no distributed transactions.  Safe unilateral operations: decreasing ``X``,
increasing ``Y``, decreasing ``Lx``, increasing ``Ly`` (up to ``Y``).
Unsafe changes require a one-message handshake that performs the safe side
first: to raise ``Lx``, Y's site first raises ``Ly``, then grants; to lower
``Ly``, X's site first lowers ``Lx``, then grants.

*Policies* (the paper's term) decide how much slack a grant hands over:

- ``EXACT`` — grant exactly what was requested (lazy; most messages);
- ``EAGER`` — grant the request plus a headroom fraction of the remaining
  slack (fewest messages, most slack hoarded by one side);
- ``SPLIT`` — grant up to the midpoint of the available slack (balanced).

An implementation that never changed the limits would also satisfy
``X <= Y`` but would deny every local update beyond the initial limits —
the paper's example of a "valid but undesirable" implementation; the
experiment harness measures denied-update rates to compare policies
(including that degenerate ``FROZEN`` one).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.core.items import DataItemRef
from repro.cm.shell import CMShell
from repro.sim.network import Message, Network


class SlackPolicy(Enum):
    """How much slack a limit-change grant hands over."""

    EXACT = "exact"
    EAGER = "eager"
    SPLIT = "split"
    #: Never change limits (valid but useless; for the ablation experiment).
    FROZEN = "frozen"


@dataclass(frozen=True)
class _LimitRequest:
    """X-side asks to raise Lx to at least ``needed`` (or Y-side asks to
    lower Ly to at most ``needed``)."""

    origin: str  # "x" or "y"
    needed: float
    request_id: int


@dataclass(frozen=True)
class _LimitGrant:
    """The peer's reply: the new bound the requester may move its limit to."""

    origin: str
    granted: float
    request_id: int


@dataclass
class DemarcationStats:
    """Counters the experiments report."""

    updates_attempted: int = 0
    updates_applied: int = 0
    updates_denied: int = 0
    requests_sent: int = 0
    grants_received: int = 0
    grants_denied: int = 0


class DemarcationAgent:
    """One side of the protocol, co-located with its CM-Shell.

    The agent owns the local item (via the site's translator) and its limit
    item (a shell-private data item, so limit changes appear in the trace
    and the ``Lx <= Ly`` invariant is itself checkable).  Local applications
    submit updates through :meth:`attempt_update`, which models the local
    database's constraint manager enforcing ``X <= Lx`` / ``Ly <= Y``.
    """

    #: Message-type tag so shells' networks can route to the agent.
    def __init__(
        self,
        side: str,  # "x" (upper-bounded) or "y" (lower-bounding)
        shell: CMShell,
        network: Network,
        item_ref: DataItemRef,
        limit_ref: DataItemRef,
        peer_site: str,
        policy: SlackPolicy,
        initial_value: float,
        initial_limit: float,
    ):
        if side not in ("x", "y"):
            raise ValueError(f"side must be 'x' or 'y', got {side!r}")
        self.side = side
        self.shell = shell
        self.network = network
        self.item_ref = item_ref
        self.limit_ref = limit_ref
        self.peer_site = peer_site
        self.policy = policy
        self.stats = DemarcationStats()
        self._pending: dict[int, float] = {}  # request id -> desired value
        self._next_request = 1
        self.peer: Optional["DemarcationAgent"] = None
        translator = shell.translator_for(item_ref.name)
        translator.apply_spontaneous_write(item_ref, initial_value)
        shell.store.write(limit_ref, initial_limit, shell.sim.now)

    # -- local state helpers ---------------------------------------------------

    @property
    def value(self) -> float:
        """Current value of the local item (from the trace's live state)."""
        return float(self.shell.trace.current_value(self.item_ref))

    @property
    def limit(self) -> float:
        """Current value of the local limit item."""
        return float(self.shell.store.read_local(self.limit_ref))

    def _write_value(self, value: float) -> None:
        translator = self.shell.translator_for(self.item_ref.name)
        translator.apply_spontaneous_write(self.item_ref, value)

    def _write_limit(self, value: float) -> None:
        self.shell.store.write(self.limit_ref, value, self.shell.sim.now)

    def _locally_allowed(self, new_value: float, limit: float) -> bool:
        if self.side == "x":
            return new_value <= limit
        return new_value >= limit

    # -- the application-facing operation ------------------------------------------

    def attempt_update(self, new_value: float) -> bool:
        """A local application tries to set the item to ``new_value``.

        Safe-direction changes (and changes within the local limit) apply
        immediately.  Otherwise the agent asks the peer for a limit change
        and the update stays pending; it applies when (and if) enough slack
        is granted.  Returns True when the update applied immediately.
        """
        self.stats.updates_attempted += 1
        if self._locally_allowed(new_value, self.limit):
            self._write_value(new_value)
            self.stats.updates_applied += 1
            return True
        if self.policy is SlackPolicy.FROZEN:
            self.stats.updates_denied += 1
            return False
        request_id = self._next_request
        self._next_request += 1
        self._pending[request_id] = new_value
        self.stats.requests_sent += 1
        self.network.send(
            self.shell.site,
            self.peer_site,
            _LimitRequest(self.side, new_value, request_id),
        )
        return False

    # -- protocol message handling ---------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Entry point for protocol messages (wired by DemarcationProtocol)."""
        payload = message.payload
        if isinstance(payload, _LimitRequest):
            self._handle_request(payload)
        elif isinstance(payload, _LimitGrant):
            self._handle_grant(payload)

    def _handle_request(self, request: _LimitRequest) -> None:
        """The peer needs our limit moved so it can move its own.

        We perform the *safe* side of the handshake first: move our limit
        toward our item's current value as far as the policy allows, then
        grant the peer the new bound.

        Crossing-request guard: if we have an outstanding request of our own,
        we reply without moving our limit.  Otherwise two simultaneous
        opposite-direction handshakes could each rely on the other's
        pre-handshake limit and jointly break ``Lx <= Ly`` — the requester
        just sees a no-slack grant and denies its pending update.

        The limit and the item are each read once: nothing here writes
        either before the last read.
        """
        limit = self.limit
        if self._pending:
            self.network.send(
                self.shell.site,
                self.peer_site,
                _LimitGrant(self.side, limit, request.request_id),
            )
            return
        available = self.value  # our limit may move at most to our item
        if self.side == "y":
            # Peer (X side) wants Lx >= needed; we may raise Ly up to Y.
            if request.needed > available:
                granted = self._grant_amount(limit, available, available)
            else:
                granted = self._grant_amount(limit, request.needed, available)
            granted = max(granted, limit)  # never regress our own limit
            if granted > limit:
                self._write_limit(granted)
        else:
            # Peer (Y side) wants Ly <= needed; we may lower Lx down to X.
            if request.needed < available:
                granted = self._grant_amount(limit, available, available)
            else:
                granted = self._grant_amount(limit, request.needed, available)
            granted = min(granted, limit)
            if granted < limit:
                self._write_limit(granted)
        self.network.send(
            self.shell.site,
            self.peer_site,
            _LimitGrant(self.side, granted, request.request_id),
        )

    def _grant_amount(
        self, current_limit: float, needed: float, extreme: float
    ) -> float:
        """Where to move our own limit, per policy.

        ``extreme`` is the furthest safe position (our item's current value);
        ``needed`` is what the peer asked for, already clamped to safety.
        """
        if self.policy is SlackPolicy.EXACT:
            return needed
        if self.policy is SlackPolicy.EAGER:
            return extreme  # hand over all currently safe slack
        if self.policy is SlackPolicy.SPLIT:
            return (needed + extreme) / 2.0
        return current_limit  # FROZEN never moves

    def _handle_grant(self, grant: _LimitGrant) -> None:
        """The peer moved its limit; we may now move ours up to the grant."""
        self.stats.grants_received += 1
        limit = self.limit
        if self.side == "x":
            moves = grant.granted > limit  # raise Lx to at most the granted Ly
        else:
            moves = grant.granted < limit  # lower Ly to at least the granted Lx
        if moves:
            self._write_limit(grant.granted)
            limit = self.limit  # re-read: the update below sees the new limit
        desired = self._pending.pop(grant.request_id, None)
        if desired is None:
            return
        if self._locally_allowed(desired, limit):
            self._write_value(desired)
            self.stats.updates_applied += 1
        else:
            self.stats.updates_denied += 1
            self.stats.grants_denied += 1


class DemarcationProtocol:
    """Wires two agents together over the network.

    Built by the manager's catalog when an inequality constraint is managed
    with the ``demarcation`` strategy.  Message routing piggybacks on the
    shells' network handlers: the protocol wraps each shell's inbound
    dispatch so protocol messages reach the agents.
    """

    def __init__(
        self,
        x_shell: CMShell,
        y_shell: CMShell,
        x_ref: DataItemRef,
        y_ref: DataItemRef,
        policy: SlackPolicy = SlackPolicy.SPLIT,
        initial_x: float = 0.0,
        initial_y: float = 0.0,
        initial_limit: Optional[float] = None,
    ):
        if initial_x > initial_y:
            raise ValueError(
                f"initial values violate X <= Y: {initial_x} > {initial_y}"
            )
        if initial_limit is None:
            initial_limit = (initial_x + initial_y) / 2.0
        if not initial_x <= initial_limit <= initial_y:
            raise ValueError(
                f"initial limit {initial_limit} outside "
                f"[{initial_x}, {initial_y}]"
            )
        network = x_shell.network
        limit_x = DataItemRef(f"Limit_{x_ref.name}")
        limit_y = DataItemRef(f"Limit_{y_ref.name}")
        self.x_agent = DemarcationAgent(
            "x", x_shell, network, x_ref, limit_x, y_shell.site, policy,
            initial_x, initial_limit,
        )
        self.y_agent = DemarcationAgent(
            "y", y_shell, network, y_ref, limit_y, x_shell.site, policy,
            initial_y, initial_limit,
        )
        self.x_agent.peer = self.y_agent
        self.y_agent.peer = self.x_agent
        self._hook_shell(x_shell, self.x_agent)
        self._hook_shell(y_shell, self.y_agent)

    @staticmethod
    def _hook_shell(shell: CMShell, agent: DemarcationAgent) -> None:
        original = shell._on_message

        def dispatch(message: Message) -> None:
            if isinstance(message.payload, (_LimitRequest, _LimitGrant)):
                agent.handle_message(message)
            else:
                original(message)

        shell._on_message = dispatch  # type: ignore[method-assign]
        shell.network._sites[shell.site].handler = dispatch
