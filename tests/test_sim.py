"""Scenario parsing, deterministic execution, and the independent replay."""

import random

import pytest

from ccss import sim
from ccss.core import CcssError, Op, Triple
from ccss.peer import local_update
from ccss.sim import (
    _IntentClasses,
    CheckEvent,
    HealEvent,
    OpEvent,
    PartitionEvent,
    PruneEvent,
    ResolveEvent,
    Scenario,
    ScenarioError,
    SyncEvent,
    World,
    parse_scenario,
    random_workload,
    reference_run,
    render_report,
    render_scenario,
    run_scenario,
)

RECONNECT = """\
# Two replicas drift apart while the link is down, then reconcile.
PEER P {1,2}
PEER Q {1,2}
LINK P Q
PARTITION P Q
OP P insert 3
OP P delete 3
OP Q delete 2
OP Q insert 3
HEAL P Q
SYNC P Q
SYNC Q P
CHECK P {1,3}
CHECK Q {1,3}
"""


# ---------------------------------------------------------------------------
# Parsing and rendering


def test_parse_scenario_structure():
    # Declarations are order-free: a LINK may precede its PEER lines.
    reordered = "LINK P Q\n" + RECONNECT.replace("LINK P Q\n", "")
    for text in (RECONNECT, reordered):
        sc = parse_scenario(text)
        assert [name for name, _ in sc.peers] == ["P", "Q"]
        assert sc.links == (("P", "Q"),)
        assert isinstance(sc.events[1], OpEvent)
        assert sc.events[1] == OpEvent("P", "insert", 3)
        assert sc.events[-1] == CheckEvent("Q", frozenset({1, 3}))


def test_render_parse_round_trip():
    every_directive = RECONNECT + (
        "OP P insert (a,7,1)\nRESOLVE P\nPRUNE Q\nCHECK P {1,3,(a,7,1)}\n"
    )
    for text in (RECONNECT, every_directive):
        sc = parse_scenario(text)
        assert parse_scenario(render_scenario(sc)) == sc


def test_parse_triple_elements():
    sc = parse_scenario(
        "PEER P {}\nOP P insert (a,7,1)\nRESOLVE P\nPRUNE P\n"
    )
    assert sc.events[0].element == Triple("a", 7, 1)


# Each bad text, with the line it fails on and the message it fails with.
PARSE_ERRORS = {
    "PEER P {1}\nLINK P Q\n": (2, "undeclared peer Q"),
    "PEER P {1}\nPEER P {2}\n": (2, "duplicate peer P"),
    "PEER P {1}\nOP P upsert 3\n": (
        2,
        "expected: OP <peer> insert|delete <element>",
    ),
    "PEER P {1}\nPEER Q {}\nSYNC P Q\n": (3, "no link between P and Q"),
    "PEER P {1}\nPEER Q {}\nLINK P Q\nLINK Q P\n": (4, "duplicate link Q P"),
    "PEER P {1}\nCHECK P 1,3\n": (2, "malformed set: '1,3'"),
    "PEER P {1}\nBOUNCE P\n": (2, "unknown directive BOUNCE"),
    "PEER P {1}\nLINK P P\n": (2, "link from P to itself"),
    "PEER P {1}\nPEER Q@x {}\n": (2, "bad peer id Q@x"),
    "PEER P {1}\nPEER Q {1}\nLINK P Q\nOP P insert a,b\n": (
        4,
        "malformed element: 'a,b'",
    ),
    "PEER P {1}\nOP P delete x]\n": (2, "malformed element: 'x]'"),
    "": (1, "scenario declares no peers"),
    # One wrong field count per usage text, and an event's undeclared peer.
    "PEER P {1} x\n": (1, "expected: PEER <id> <set>"),
    "PEER P {1}\nLINK P\n": (2, "expected: LINK <a> <b>"),
    "PEER P {1}\nPEER Q {}\nLINK P Q\nSYNC P\n": (4, "expected: SYNC <a> <b>"),
    "PEER P {1}\nPARTITION P Q R\n": (2, "expected: PARTITION <a> <b>"),
    "PEER P {1}\nHEAL P\n": (2, "expected: HEAL <a> <b>"),
    "PEER P {1}\nRESOLVE\n": (2, "expected: RESOLVE <peer>"),
    "PEER P {1}\nPRUNE P Q\n": (2, "expected: PRUNE <peer>"),
    "PEER P {1}\nCHECK P\n": (2, "expected: CHECK <peer> <set>"),
    "PEER P {}\nPRUNE Q\n": (2, "undeclared peer Q"),
}


@pytest.mark.parametrize(
    "text,line", [(text, line) for text, (line, _) in PARSE_ERRORS.items()]
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {PARSE_ERRORS[text][1]}"


# ---------------------------------------------------------------------------
# Execution


def test_reconnect_scenario_converges():
    report = run_scenario(parse_scenario(RECONNECT), seed=0)
    assert report.final_states == {
        "P": frozenset({1, 3}),
        "Q": frozenset({1, 3}),
    }
    assert report.convergence
    assert report.checks_passed
    assert (
        render_report(report)
        == "FINAL P {1,3}\nFINAL Q {1,3}\nCONVERGED true\n"
    )


def test_no_op_scenario_is_stable():
    sc = parse_scenario("PEER P {1}\nPEER Q {2}\nLINK P Q\nSYNC P Q\n")
    report = run_scenario(sc, seed=0)
    assert report.final_states == {"P": frozenset({1}), "Q": frozenset({2})}
    assert not report.convergence  # nothing was exchanged, sets differ


def test_runs_are_deterministic():
    sc = random_workload(
        peers=3, universe_size=5, ops_per_peer=10, sync_density=0.3, seed=42
    )
    a = run_scenario(sc, seed=7)
    b = run_scenario(sc, seed=7)
    assert a == b
    assert render_report(a) == render_report(b)


def test_partition_drops_and_heal_recovers():
    sc = parse_scenario(
        "PEER P {}\nPEER Q {}\nLINK P Q\n"
        "OP P insert 9\nPARTITION P Q\nSYNC P Q\nHEAL P Q\nSYNC P Q\n"
    )
    report = run_scenario(sc, seed=0)
    assert report.messages_dropped == 1
    assert report.messages_delivered == 1
    assert report.final_states["Q"] == frozenset({9})
    assert report.convergence


def test_check_failures_are_recorded_not_raised():
    sc = parse_scenario("PEER P {1}\nCHECK P {2}\n")
    report = run_scenario(sc, seed=0)
    assert not report.checks_passed
    outcome = report.checks[0]
    assert (outcome.peer, outcome.expected, outcome.actual) == (
        "P",
        frozenset({2}),
        frozenset({1}),
    )


def test_prune_events_do_not_change_outcomes():
    base = parse_scenario(RECONNECT)
    pruned_events = []
    for event in base.events:
        pruned_events.append(event)
        pruned_events.extend(PruneEvent(name) for name, _ in base.peers)
    pruned = Scenario(base.peers, base.links, tuple(pruned_events))
    assert (
        run_scenario(pruned, seed=0).final_states
        == run_scenario(base, seed=0).final_states
    )


def test_cyclic_links_are_rejected():
    peers = "PEER A {}\nPEER B {}\nPEER C {}\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(peers + "LINK A B\nLINK B C\nLINK A C\n")
    assert info.value.line == 6
    triangle = Scenario(
        tuple((name, frozenset()) for name in "ABC"),
        (("A", "B"), ("B", "C"), ("C", "A")),
        (),
    )
    with pytest.raises(ScenarioError):
        run_scenario(triangle, seed=0)
    line = parse_scenario(peers + "LINK A B\nLINK B C\n")
    assert run_scenario(line, seed=0).convergence


def test_built_scenarios_refuse_unknown_intents_like_parsed_ones():
    sc = Scenario(
        (("P", frozenset({1})), ("Q", frozenset({1}))),
        (("P", "Q"),),
        (OpEvent("P", "upsert", 1), SyncEvent("P", "Q")),
    )
    for execute in (lambda: run_scenario(sc, seed=0), lambda: reference_run(sc)):
        with pytest.raises(ScenarioError) as info:
            execute()
        assert str(info.value) == "expected: OP <peer> insert|delete <element>"
        assert info.value.line is None


def test_elements_the_wire_cannot_carry_are_rejected():
    for x in ("a b", 3.5, Triple("x,y", 1, 2)):
        sc = Scenario((("P", frozenset()),), (), (OpEvent("P", "insert", x),))
        with pytest.raises(ScenarioError):
            run_scenario(sc, seed=0)
    # Starting sets and CHECK sets are checked as well as OP elements.
    for sc in (
        Scenario((("P", frozenset({"a b"})),), (), ()),
        Scenario((("P", frozenset()),), (), (CheckEvent("P", frozenset({3.5})),)),
    ):
        with pytest.raises(ScenarioError, match="cannot cross the wire"):
            run_scenario(sc, seed=0)
    # Ints longer than sys.get_int_max_str_digits() have no text at all.
    for x in (10**5000, -(10**5000)):
        sc = Scenario((("P", frozenset()),), (), (OpEvent("P", "insert", x),))
        with pytest.raises(ScenarioError, match="cannot cross the wire"):
            run_scenario(sc, seed=0)
    # A peer's name is not an element: a peer may be named 5.
    sc = parse_scenario("PEER 5 {(a,k,1),(b,k,2)}\nRESOLVE 5\nCHECK 5 {(b,k,2)}\n")
    assert sc.events[0] == ResolveEvent("5")
    assert run_scenario(sc, seed=0).checks_passed


def test_reference_run_alone_refuses_a_fresh_bad_scenario():
    # The judge checks by itself, and a check that failed is not kept.
    bad = Scenario((("P", frozenset()),), (("P", "Q"),), ())
    for _ in range(2):
        with pytest.raises(ScenarioError, match="undeclared peer Q"):
            reference_run(bad)


def test_a_parsed_scenario_is_checked_once(monkeypatch):
    calls = []
    real = sim._validate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sim, "_validate", counting)
    sc = parse_scenario(RECONNECT)
    run_scenario(sc, seed=0)
    reference_run(sc)
    assert len(calls) == 1


def test_convergence_is_judged_per_component():
    sc = parse_scenario(
        "PEER A {1}\nPEER B {1}\nPEER C {9}\nLINK A B\nSYNC A B\n"
    )
    report = run_scenario(sc, seed=0)
    # C is unreachable and different, but each linked component agrees.
    assert report.convergence


def test_resolve_event_runs_lww():
    sc = parse_scenario(
        "PEER P {}\nPEER Q {}\nLINK P Q\n"
        "OP P insert (a,7,1)\nOP Q insert (b,7,2)\n"
        "SYNC P Q\nSYNC Q P\nRESOLVE P\nSYNC P Q\nCHECK Q {(b,7,2)}\n"
    )
    report = run_scenario(sc, seed=0)
    assert report.checks_passed
    assert report.final_states["P"] == frozenset({Triple("b", 7, 2)})


def test_segmented_delivery_keeps_outcomes():
    sc = random_workload(
        peers=4, universe_size=6, ops_per_peer=15, sync_density=0.3, seed=11
    )
    whole = run_scenario(sc, seed=3)
    for max_segments in (2, 3, 4):
        split = run_scenario(sc, seed=3, max_segments=max_segments)
        assert split.final_states == whole.final_states


# ---------------------------------------------------------------------------
# The World: peers, one channel per directed link, send and deliver

PQ = ("P", "Q")


def pair_world(inserts=()):
    world = World(parse_scenario("PEER P {}\nPEER Q {}\nLINK P Q\n"))
    for x in inserts:
        local_update(world.peers["P"], "insert", x)
    return world


def test_world_has_one_channel_per_directed_link():
    world = World(
        parse_scenario("PEER A {}\nPEER B {}\nPEER C {}\nLINK A B\nLINK C B\n")
    )
    assert sorted(world.channels) == [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")]
    assert all(queue == [] for queue in world.channels.values())


def test_send_on_a_partitioned_link_prepares_but_queues_nothing():
    world = pair_world([1])
    world.link_up[PQ] = False
    assert world.peers["P"].neighbors["Q"].sent_ack == {}
    assert world.send(*PQ) is False
    assert world.channels[PQ] == []
    # prepare_sync ran: P has told Q of its op, as far as P knows.
    assert world.peers["P"].neighbors["Q"].sent_ack == {"P": 1}


def test_send_queues_segments_in_order():
    world = pair_world([1, 2, 3, 4])
    assert world.send(*PQ, 3)
    local_update(world.peers["P"], "insert", 5)
    assert world.send(*PQ)
    queue = world.channels[PQ]
    assert len(queue) == 4
    assert [t.origin_seq for m in queue[:3] for t in m.payload] == [1, 2, 3, 4]
    assert [t.origin_seq for t in queue[3].payload] == [1, 2, 3, 4, 5]


def test_deliver_takes_the_indexed_message():
    world = pair_world([1, 2, 3, 4])
    world.send(*PQ, 2)
    first, second = world.channels[PQ]
    world.deliver(PQ, 1)
    assert world.channels[PQ] == [first]
    assert world.peers["Q"].data == {t.op.element for t in second.payload}
    world.deliver(PQ)
    assert world.channels[PQ] == []


# ---------------------------------------------------------------------------
# Workload generation


def test_random_workload_is_deterministic():
    a = random_workload(3, 5, 8, 0.2, seed=9)
    b = random_workload(3, 5, 8, 0.2, seed=9)
    assert a == b
    assert a != random_workload(3, 5, 8, 0.2, seed=10)


def test_random_workload_zero_ops():
    sc = random_workload(2, 4, 0, 0.5, seed=0)
    report = run_scenario(sc, seed=0)
    initial = dict(sc.peers)
    assert report.final_states == {
        name: frozenset(initial[name]) for name, _ in sc.peers
    }
    assert report.ops_applied == 0


def test_random_workload_shares_initial_set_over_a_tree():
    sc = random_workload(5, 6, 3, 0.2, seed=4)
    assert len({initial for _, initial in sc.peers}) == 1
    assert len(sc.links) == len(sc.peers) - 1
    with pytest.raises(ValueError):
        random_workload(0, 4, 1, 0.2, seed=0)


# ---------------------------------------------------------------------------
# Independent replay


def test_reference_run_matches_reconnect_scenario():
    sc = parse_scenario(RECONNECT)
    assert reference_run(sc) == run_scenario(sc, seed=0).final_states


def test_reference_run_matches_randomized_workloads():
    for seed in range(1, 21):
        sc = random_workload(
            peers=3 + seed % 3,
            universe_size=6,
            ops_per_peer=12,
            sync_density=0.25,
            seed=seed,
        )
        report = run_scenario(sc, seed=seed)
        assert report.convergence, f"seed {seed} did not converge"
        assert reference_run(sc) == report.final_states, f"seed {seed} differs"


def _lww_workload(seed):
    """A tree of 2-4 peers inserting, deleting and resolving triples."""
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(1, rng.randint(2, 4) + 1)]
    links = tuple((names[rng.randrange(i)], names[i]) for i in range(1, len(names)))
    events = []
    for _ in range(rng.randint(4, 16)):
        roll = rng.random()
        if roll < 0.6:
            triple = Triple(rng.choice("ab"), rng.randint(1, 2), rng.randint(1, 3))
            intent = rng.choice(("insert", "insert", "delete"))
            events.append(OpEvent(rng.choice(names), intent, triple))
        elif roll < 0.75:
            events.append(ResolveEvent(rng.choice(names)))
        else:
            a, b = rng.choice(links)
            events.append(SyncEvent(a, b) if rng.random() < 0.5 else SyncEvent(b, a))
    for _ in names:
        for a, b in links:
            events += [SyncEvent(a, b), SyncEvent(b, a)]
    return Scenario(tuple((name, frozenset()) for name in names), links, tuple(events))


def test_reference_run_matches_lww_workloads():
    resolving = 0
    for seed in range(200):
        sc = _lww_workload(seed)
        expected = reference_run(sc)
        assert expected == run_scenario(sc, seed).final_states, f"seed {seed}"
        unresolved = Scenario(
            sc.peers,
            sc.links,
            tuple(e for e in sc.events if not isinstance(e, ResolveEvent)),
        )
        resolving += reference_run(unresolved) != expected
    # The RESOLVE events decide the outcome of a share of the seeds.
    assert resolving >= 10


class _MemberListClasses:
    """The replay's earlier union-find: raw tags, member lists, two passes."""

    def __init__(self):
        self._parent = {}
        self._members = {}

    def find(self, key):
        self._parent.setdefault(key, key)
        self._members.setdefault(key, [key])
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
            self._members[ra].extend(self._members.pop(rb))

    def known_to(self, key, known):
        return any(member in known for member in self._members[self.find(key)])

    def dedupe(self, tagged):
        seen = set()
        out = []
        for t in tagged:
            root = self.find(t[1])
            if root not in seen:
                seen.add(root)
                out.append(t)
        return out


@pytest.mark.parametrize("seed", range(20))
def test_unseen_matches_member_list_classes(seed):
    rng = random.Random(seed)
    names = [f"M{i}" for i in range(rng.randint(2, 5))]
    raw_known = {name: set() for name in names}
    root_known = {name: set() for name in names}
    histories = {name: [] for name in names}
    old = _MemberListClasses()
    new = _IntentClasses(list(root_known.values()))
    tags = []
    for step in range(150):
        name = rng.choice(names)
        action = rng.random()
        if action < 0.35 or not tags:  # issue a fresh intent
            tag = (name, step)
            tags.append(tag)
            histories[name].append((Op.insert(step), tag))
            raw_known[name].add(tag)
            root_known[name].add(tag)
        elif action < 0.55:  # two tags turn out to be one intent
            a, b = rng.choice(tags), rng.choice(tags)
            old.union(a, b)
            new.union(a, b)
        elif action < 0.8:  # a mirror learns an intent
            tag = rng.choice(tags)
            raw_known[name].add(tag)
            root_known[name].add(new.find(tag))
        else:  # a mirror relays an entry from some history
            source = histories[rng.choice(names)]
            if source:
                histories[name].append(rng.choice(source))
        for holder in names:
            for reader in names:
                history, known = histories[holder], raw_known[reader]
                expected = old.dedupe(
                    [t for t in history if not old.known_to(t[1], known)]
                )
                assert new.unseen(history, root_known[reader]) == expected


def _full_scan_unseen(self, history, known, start=0):
    # The replay's scan before per-direction cursors: always from entry 0.
    taken = set()
    out = []
    for entry in history:
        root = self.find(entry[1])
        if root not in known and root not in taken:
            taken.add(root)
            out.append(entry)
    return out


def _with_partitions(scenario, rng):
    # Partitions (most of them healed later) and, on some seeds, unequal
    # starting sets, which make the replay raise DivergenceError.
    events = list(scenario.events)
    for _ in range(rng.randint(0, 6)):
        a, b = rng.choice(scenario.links)
        heal_at = rng.randrange(len(events) + 1)
        if rng.random() < 0.8:
            events.insert(heal_at, HealEvent(a, b))
        events.insert(rng.randrange(heal_at + 1), PartitionEvent(a, b))
    peers = list(scenario.peers)
    if rng.random() < 0.3:
        k = rng.randrange(len(peers))
        peers[k] = (peers[k][0], peers[k][1] ^ {rng.randint(1, 3)})
    return Scenario(tuple(peers), scenario.links, tuple(events))


def _replay(scenario):
    try:
        return reference_run(scenario)
    except CcssError as exc:
        return type(exc), str(exc)


def test_reference_run_cursor_matches_full_scan(monkeypatch):
    diverged = 0
    for seed in range(200):
        rng = random.Random(seed)
        sc = _with_partitions(
            random_workload(
                rng.randint(2, 6),
                rng.randint(3, 40),
                rng.randint(0, 30),
                rng.choice((0.1, 0.2, 0.4)),
                seed,
            ),
            rng,
        )
        with_cursor = _replay(sc)
        with monkeypatch.context() as m:
            m.setattr(_IntentClasses, "unseen", _full_scan_unseen)
            full_scan = _replay(sc)
        assert with_cursor == full_scan, f"seed {seed}"
        diverged += isinstance(with_cursor, tuple)
    assert 0 < diverged < 200
