"""Deterministic scenario simulator for networks of replicated-set peers.

A scenario declares peers, undirected links, and an event list (local ops,
directed syncs, partitions, heals, resolution passes, prunes, and state
checks); the links must form a forest.  Running a scenario is pure: identical
scenario text and seed give identical reports.  A sync attempted across a
partitioned link is recorded as a drop, not an error, and acknowledgments
make a later sync resend what was lost.

Messages move only on a `World`, of which `run_scenario` is one scripted
schedule; `reference_run`, the judge, keeps its own bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import cached_property

from . import core, peer as peermod, resolution
from .core import (
    CcssError,
    DivergenceError,
    Element,
    Op,
    Triple,
    parse_element,
    parse_element_set,
    render_element,
    render_element_set,
)

# ---------------------------------------------------------------------------
# Scenario model


class ScenarioError(CcssError):
    """Malformed scenario text or event list; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class OpEvent:
    peer: str
    intent: str
    element: Element


@dataclass(frozen=True)
class SyncEvent:
    src: str
    dst: str


@dataclass(frozen=True)
class PartitionEvent:
    a: str
    b: str


@dataclass(frozen=True)
class HealEvent:
    a: str
    b: str


@dataclass(frozen=True)
class ResolveEvent:
    peer: str


@dataclass(frozen=True)
class PruneEvent:
    peer: str


@dataclass(frozen=True)
class CheckEvent:
    peer: str
    expected: frozenset


Event = (
    OpEvent
    | SyncEvent
    | PartitionEvent
    | HealEvent
    | ResolveEvent
    | PruneEvent
    | CheckEvent
)


@dataclass(frozen=True)
class Scenario:
    peers: tuple[tuple[str, frozenset], ...]
    links: tuple[tuple[str, str], ...]
    events: tuple[Event, ...]

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Each peer's neighbors, from the first `_validate` that passes."""
        return _validate(self)


def _link_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


# The scenario language, one row per directive: the list a line joins, the
# event it builds from its fields (a declaration is the tuple of its fields),
# and its usage, one slot per field.  A `<set>` or `<element>` slot is read as
# one, any other as a name, and `_validate` holds an `a|b` slot to its words.
_DIRECTIVES = {
    "PEER": ("peer", None, "<id> <set>"),
    "LINK": ("link", None, "<a> <b>"),
    "OP": ("event", OpEvent, "<peer> insert|delete <element>"),
    "SYNC": ("event", SyncEvent, "<a> <b>"),
    "PARTITION": ("event", PartitionEvent, "<a> <b>"),
    "HEAL": ("event", HealEvent, "<a> <b>"),
    "RESOLVE": ("event", ResolveEvent, "<peer>"),
    "PRUNE": ("event", PruneEvent, "<peer>"),
    "CHECK": ("event", CheckEvent, "<peer> <set>"),
}
_READERS = {"<set>": parse_element_set, "<element>": parse_element}
_INTENTS = tuple(_DIRECTIVES["OP"][2].split()[1].split("|"))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with the offending line.

    Declarations are order-free: a LINK may precede the PEER lines it names.
    """
    built: dict[str, list] = {"peer": [], "link": [], "event": []}
    lines: dict[tuple[str, int], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word, *texts = line.split()
        if word not in _DIRECTIVES:
            raise ScenarioError(f"unknown directive {word}", lineno)
        kind, build, usage = _DIRECTIVES[word]
        slots = usage.split()
        if len(texts) != len(slots):
            raise ScenarioError(f"expected: {word} {usage}", lineno)
        try:
            values = [_READERS.get(slot, str)(t) for slot, t in zip(slots, texts)]
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno) from exc
        lines[kind, len(built[kind])] = lineno
        built[kind].append(build(*values) if build else tuple(values))

    if not built["peer"]:
        raise ScenarioError("scenario declares no peers", line=1)
    scenario = Scenario(*(tuple(built[kind]) for kind in ("peer", "link", "event")))
    # Stored where `Scenario.neighbors` (a non-data descriptor) finds it, so a
    # parsed scenario is checked once.
    scenario.__dict__["neighbors"] = _validate(scenario, lines)
    return scenario


def _render_line(word: str, values) -> str:
    texts = (
        (render_element_set if slot == "<set>" else render_element)(value)
        for slot, value in zip(_DIRECTIVES[word][2].split(), values)
    )
    return " ".join([word, *texts])


def render_event(event: Event) -> str:
    word = next(word for word, row in _DIRECTIVES.items() if row[1] is type(event))
    return _render_line(word, [getattr(event, f.name) for f in fields(event)])


def render_scenario(scenario: Scenario) -> str:
    lines = [_render_line("PEER", peer) for peer in scenario.peers]
    lines.extend(_render_line("LINK", link) for link in scenario.links)
    lines.extend(render_event(e) for e in scenario.events)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution


@dataclass(frozen=True)
class CheckOutcome:
    event_index: int
    peer: str
    expected: frozenset
    actual: frozenset
    passed: bool


@dataclass
class RunReport:
    final_states: dict[str, frozenset]
    convergence: bool
    checks: tuple[CheckOutcome, ...]
    ops_applied: int
    messages_delivered: int
    messages_dropped: int

    @property
    def checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def render_report(report: RunReport) -> str:
    lines = [
        f"FINAL {name} {render_element_set(members)}"
        for name, members in sorted(report.final_states.items())
    ]
    lines.append(f"CONVERGED {'true' if report.convergence else 'false'}")
    return "\n".join(lines) + "\n"


def _validate(
    scenario: Scenario, lines: dict[tuple[str, int], int] | None = None
) -> dict[str, tuple[str, ...]]:
    """Check that peers, links and events name each other consistently.

    The links must form a forest (see the precondition in `peer`).  Returns
    each peer's neighbors in link order.  `lines` maps ("peer" | "link" |
    "event", index) to a source line.
    """

    def fail(message: str, kind: str, index: int) -> None:
        raise ScenarioError(message, lines.get((kind, index)) if lines else None)

    def check_elements(members, kind: str, index: int) -> None:
        for x in members:
            if not core.is_wire_element(x):
                shown = core.describe_element(x)
                fail(f"element {shown} cannot cross the wire", kind, index)

    neighbors: dict[str, list[str]] = {}
    for i, (name, initial) in enumerate(scenario.peers):
        if not peermod._PEER_ID_RE.fullmatch(name):
            fail(f"bad peer id {name}", "peer", i)
        if name in neighbors:
            fail(f"duplicate peer {name}", "peer", i)
        neighbors[name] = []
        check_elements(initial, "peer", i)

    # Union-find: a link joining two already connected peers closes a cycle.
    parent = {name: name for name in neighbors}

    def root(name: str) -> str:
        while parent[name] != name:
            name = parent[name]
        return name

    for i, (a, b) in enumerate(scenario.links):
        for name in (a, b):
            if name not in neighbors:
                fail(f"undeclared peer {name}", "link", i)
        if a == b:
            fail(f"link from {a} to itself", "link", i)
        if b in neighbors[a]:
            fail(f"duplicate link {a} {b}", "link", i)
        if root(a) == root(b):
            fail(f"link {a} {b} closes a cycle; links must form a forest", "link", i)
        parent[root(b)] = root(a)
        neighbors[a].append(b)
        neighbors[b].append(a)

    for i, event in enumerate(scenario.events):
        if isinstance(event, (SyncEvent, PartitionEvent, HealEvent)):
            a, b = (
                (event.src, event.dst)
                if isinstance(event, SyncEvent)
                else (event.a, event.b)
            )
            if b not in neighbors.get(a, ()):
                fail(f"no link between {a} and {b}", "event", i)
        elif event.peer not in neighbors:
            fail(f"undeclared peer {event.peer}", "event", i)
        elif isinstance(event, OpEvent):
            if event.intent not in _INTENTS:
                fail(f"expected: OP {_DIRECTIVES['OP'][2]}", "event", i)
            check_elements((event.element,), "event", i)
        elif isinstance(event, CheckEvent):
            check_elements(event.expected, "event", i)
    return {name: tuple(names) for name, names in neighbors.items()}


class World:
    """A scenario's peers and links, with one channel per directed link.

    A channel is the list of messages and segments queued on a link, in send
    order.  There are two moves: `send` prepares a message and queues its
    segments, and `deliver` hands one queued message to its receiver.  A
    schedule loses a message with `del world.channels[link][i]` and
    duplicates one by queueing it again before it is delivered.
    """

    def __init__(self, scenario: Scenario) -> None:
        neighbors = scenario.neighbors
        self.peers = {
            name: peermod.init_peer(name, initial, neighbors[name])
            for name, initial in scenario.peers
        }
        self.channels: dict[tuple[str, str], list[peermod.SyncMessage]] = {
            (a, b): [] for a, names in neighbors.items() for b in names
        }
        self.link_up = {_link_key(a, b): True for a, b in scenario.links}

    def send(self, src: str, dst: str, parts: int = 1) -> bool:
        """Prepare a message and queue it as `parts` segments at most.

        On a partitioned link the message is prepared all the same, but
        nothing is queued and the result is False."""
        message = peermod.prepare_sync(self.peers[src], dst)
        if not self.link_up[_link_key(src, dst)]:
            return False
        self.channels[src, dst].extend(peermod.split_message(message, parts))
        return True

    def deliver(self, link: tuple[str, str], index: int = 0) -> None:
        """Take the `index`-th message queued on `link` and handle it."""
        message = self.channels[link].pop(index)
        peermod.handle_sync(self.peers[link[1]], message)


def run_scenario(scenario: Scenario, seed: int, max_segments: int = 1) -> RunReport:
    """Execute the event list; pure function of (scenario, seed, segments).

    A SYNC sends one message on the World and delivers its link's queue in
    order.  max_segments > 1 sends each message as that many consecutive
    segments at most (sizes drawn from the seeded generator), which must not
    change any outcome.
    """
    world = World(scenario)
    peers = world.peers
    rng = random.Random(seed)

    ops_applied = 0
    messages_delivered = 0
    messages_dropped = 0
    checks: list[CheckOutcome] = []

    for index, event in enumerate(scenario.events):
        try:
            if isinstance(event, OpEvent):
                applied = peermod.local_update(
                    peers[event.peer], event.intent, event.element
                )
                if applied is not None:
                    ops_applied += 1
            elif isinstance(event, SyncEvent):
                parts = rng.randint(2, max_segments) if max_segments > 1 else 1
                if not world.send(event.src, event.dst, parts):
                    messages_dropped += 1
                    continue
                link = (event.src, event.dst)
                queue = world.channels[link]
                while queue:
                    world.deliver(link)
                messages_delivered += 1
            elif isinstance(event, (PartitionEvent, HealEvent)):
                world.link_up[_link_key(event.a, event.b)] = isinstance(
                    event, HealEvent
                )
            elif isinstance(event, ResolveEvent):
                ops_applied += len(resolution.lww_resolve(peers[event.peer]))
            elif isinstance(event, PruneEvent):
                peermod.prune_log(peers[event.peer])
            elif isinstance(event, CheckEvent):
                actual = frozenset(peers[event.peer].data)
                checks.append(
                    CheckOutcome(
                        index,
                        event.peer,
                        event.expected,
                        actual,
                        actual == event.expected,
                    )
                )
        except CcssError as exc:
            raise type(exc)(f"event {index} ({render_event(event)}): {exc}") from exc

    final_states = {name: frozenset(p.data) for name, p in peers.items()}
    return RunReport(
        final_states=final_states,
        # Both ends of every link agree: on any graph, one set per component.
        convergence=all(final_states[a] == final_states[b] for a, b in scenario.links),
        checks=tuple(checks),
        ops_applied=ops_applied,
        messages_delivered=messages_delivered,
        messages_dropped=messages_dropped,
    )


# ---------------------------------------------------------------------------
# Workload generation


def random_workload(
    peers: int,
    universe_size: int,
    ops_per_peer: int,
    sync_density: float,
    seed: int,
) -> Scenario:
    """Seeded random scenario: a tree of peers, mixed intents, trailing syncs.

    All peers share one starting set.  Sync events are sprinkled between ops
    at the given density, and enough full link rounds are appended at the end
    for every operation to reach every peer.
    """
    if peers < 1:
        raise ValueError("need at least one peer")
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(1, peers + 1)]
    links = [
        (names[rng.randrange(i)], names[i]) for i in range(1, peers)
    ]
    initial = frozenset(
        x for x in range(1, universe_size + 1) if rng.random() < 0.5
    )

    slots = [name for name in names for _ in range(ops_per_peer)]
    rng.shuffle(slots)
    events: list[Event] = []
    for name in slots:
        events.append(
            OpEvent(
                name,
                rng.choice(("insert", "delete")),
                rng.randint(1, universe_size),
            )
        )
        if links and rng.random() < sync_density:
            a, b = rng.choice(links)
            if rng.random() < 0.5:
                a, b = b, a
            events.append(SyncEvent(a, b))
    for _ in range(peers):
        for a, b in links:
            events.append(SyncEvent(a, b))
            events.append(SyncEvent(b, a))
    return Scenario(
        peers=tuple((name, initial) for name in names),
        links=tuple(links),
        events=tuple(events),
    )


# ---------------------------------------------------------------------------
# Independent replay


_Tag = tuple[str, int]


@dataclass
class _MirrorPeer:
    data: set
    history: list[tuple[Op, _Tag]] = field(default_factory=list)
    known: set[_Tag] = field(default_factory=set)
    issued: int = 0


class _IntentClasses:
    """Union-find over tagged operation ids; duplicate intents share a class.

    When two concurrently issued operations turn out to be the same intent
    (same element, same kind, neither side had seen the other), they are one
    operation for counting purposes: a mirror that holds either id holds the
    intent, and it must be delivered and applied at most once per mirror.

    Every mirror's `known` set holds class roots, so whether a mirror holds
    an intent is one `find` and one set lookup.  A union moves the absorbed
    root's marks to the surviving root.
    """

    def __init__(self, knowns: list[set[_Tag]]) -> None:
        self._parent: dict[_Tag, _Tag] = {}  # roots have no entry
        self._knowns = knowns

    def find(self, tag: _Tag) -> _Tag:
        parent = self._parent
        root = tag
        while root in parent:
            root = parent[root]
        while tag != root:
            parent[tag], tag = root, parent[tag]
        return root

    def union(self, a: _Tag, b: _Tag) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
            for known in self._knowns:
                if rb in known:
                    known.remove(rb)
                    known.add(ra)

    def unseen(
        self, history: list[tuple[Op, _Tag]], known: set[_Tag], start: int = 0
    ) -> list:
        """Entries whose class `known` lacks, first of each class, in order.

        The scan starts at `start`; the caller vouches that `known` holds
        the class of every entry before it.
        """
        taken: set[_Tag] = set()
        out = []
        for entry in history[start:]:
            root = self.find(entry[1])
            if root not in known and root not in taken:
                taken.add(root)
                out.append(entry)
        return out


def reference_run(scenario: Scenario) -> dict[str, frozenset]:
    """Replay a scenario on set-semantics mirrors; returns final states.

    This is a from-scratch second execution model used to validate the peer
    machinery: no operation transforms, no watermarks, no logs.  Every mirror
    remembers which tagged operations it has witnessed; a sync hands over the
    complete unseen history, mutually canceling operations are struck out,
    concurrent same-intent pairs are identified and counted once, and the
    remainder is merged by plain set arithmetic.

    A sync from `src` to `dst` leaves every entry of `src.history` known to
    `dst`, and marks only ever move to class roots, so they stay known.  The
    next scan of that history for `dst` starts at the direction's cursor.
    """
    scenario.neighbors  # checks the scenario, once per object
    mirrors = {name: _MirrorPeer(set(initial)) for name, initial in scenario.peers}
    link_up = {_link_key(a, b): True for a, b in scenario.links}
    classes = _IntentClasses([m.known for m in mirrors.values()])
    cursor: dict[tuple[str, str], int] = {}

    def issue(mirror: _MirrorPeer, name: str, op: Op) -> None:
        mirror.issued += 1
        tag = (name, mirror.issued)
        # Every op issued is made from mirror.data or deletes one of its
        # members, so it is effectful and the toggle applies it.
        mirror.data ^= {op.element}
        mirror.history.append((op, tag))
        mirror.known.add(tag)

    for index, event in enumerate(scenario.events):
        if isinstance(event, OpEvent):
            mirror = mirrors[event.peer]
            op = (
                core.make_insert(mirror.data, event.element)
                if event.intent == "insert"
                else core.make_delete(mirror.data, event.element)
            )
            if not op.is_nop:
                issue(mirror, event.peer, op)
        elif isinstance(event, SyncEvent):
            if not link_up[_link_key(event.src, event.dst)]:
                continue
            src, dst = mirrors[event.src], mirrors[event.dst]
            incoming = classes.unseen(
                src.history, dst.known, cursor.get((event.src, event.dst), 0)
            )
            # Once the incoming entries are marked below, dst knows all of
            # src.history; with nothing incoming, there is nothing to merge.
            cursor[event.src, event.dst] = len(src.history)
            if not incoming:
                continue
            local = classes.unseen(
                dst.history, src.known, cursor.get((event.dst, event.src), 0)
            )
            incoming_ops = core.normalize(tuple(op for op, _ in incoming))
            local_ops = core.normalize(tuple(op for op, _ in local))
            local_by_elem = {
                op.element: (op, tag)
                for op, (_, tag) in zip(local_ops, local)
                if not op.is_nop
            }
            inserts: set = set()
            deletes: set = set()
            for op, entry in zip(incoming_ops, incoming):
                if op.is_nop:
                    continue
                twin = local_by_elem.get(op.element)
                if twin is not None:
                    twin_op, twin_tag = twin
                    if twin_op.kind is not op.kind:
                        clash = core.disagreement(op.element, op.kind, twin_op.kind)
                        raise DivergenceError(
                            f"event {index} ({render_event(event)}): {clash}"
                        )
                    # Concurrent duplicates are one intent; count it once.
                    classes.union(entry[1], twin_tag)
                    continue
                if op.kind is core.OpKind.INSERT:
                    inserts.add(op.element)
                else:
                    deletes.add(op.element)
                # Only applied instances join the relay record; canceled
                # pairs and duplicate twins are covered by the known marks.
                dst.history.append(entry)
            dst.data -= deletes
            dst.data |= inserts
            # Marked after the unions above, so each mark lands on its root.
            for _, tag in incoming:
                dst.known.add(classes.find(tag))
        elif isinstance(event, PartitionEvent):
            link_up[_link_key(event.a, event.b)] = False
        elif isinstance(event, HealEvent):
            link_up[_link_key(event.a, event.b)] = True
        elif isinstance(event, ResolveEvent):
            mirror = mirrors[event.peer]
            by_key: dict = {}
            for member in mirror.data:
                if isinstance(member, Triple):
                    by_key.setdefault(member.key, []).append(member)
            for triples in by_key.values():
                triples.sort(key=lambda t: (t.stamp, render_element(t.value)))
                for loser in triples[:-1]:
                    issue(mirror, event.peer, Op.delete(loser))
        # Prune and Check events do not touch mirror state.

    return {name: frozenset(m.data) for name, m in mirrors.items()}
