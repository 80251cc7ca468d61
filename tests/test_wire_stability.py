"""The wire text stays byte for byte what it was.

Two fixed, seeded runs send every message through `encode_sync_message` and
`parse_sync_message`, and a sha256 over all the lines they encode is
compared with a digest recorded from an earlier implementation.  A change
to how messages are built, encoded or parsed that moves a single byte, or
makes a parsed message handle differently, moves the digest.
"""

import hashlib
import random

from ccss.core import Triple
from ccss.peer import (
    encode_sync_message,
    handle_sync,
    init_peer,
    local_update,
    parse_sync_message,
    prepare_sync,
    prune_log,
    split_message,
)
from ccss.sim import OpEvent, SyncEvent, random_workload

HEAL_DIGEST = "18080b016d81001d64152a6c7e61800a4d158ee49dbafb0f5910ebf133cec38d"
WORKLOAD_DIGEST = "b1a6d44829338819cae33010c3da20462f7b3f5675fe151ffb4f3cdaac7c9458"


def _deliver(src, dst, lines, segments=1, rng=None):
    """Prepare, encode, parse and handle one sync; every line is recorded."""
    msg = prepare_sync(src, dst.id)
    parts = [msg]
    if segments > 1 and len(msg.payload) > 1:
        parts = split_message(msg, rng.randint(2, segments))
    for part in parts:
        line = encode_sync_message(part)
        parsed = parse_sync_message(line)
        assert parsed == part and encode_sync_message(parsed) == line
        handle_sync(dst, parsed)
        lines.append(line)


def _heal_lines():
    """Two 2k-element replicas drift apart in bursts, then heal, in rounds.

    As in the benchmark's partition-heal: some updates undo the side's
    previous one (canceling pairs) and some come from a pool both sides
    touch (concurrent duplicates).  The pool holds tokens and triples too.
    In the second round A's first heal message is lost, so the resend
    repeats verbatim every tail whose first entry is under the ack map of
    the lost message.
    """
    rng = random.Random("wire-stability:heal")
    universe = 4000
    base = frozenset(rng.sample(range(universe), 2000))
    pool = rng.sample(range(universe), 150) + [
        "tok",
        "b-2",
        Triple("a", 7, 1),
        Triple(Triple("x", "k", 2), "k", 3),
    ]
    a = init_peer("A", base, ("B",))
    b = init_peer("B", base, ("A",))
    lines = []
    for round_ in range(3):
        last = {}
        for _ in range(250):
            for side in (a, b):
                r = rng.random()
                if side.id in last and r < 0.2:
                    x = last[side.id]
                elif r < 0.35:
                    x = rng.choice(pool)
                else:
                    x = rng.randrange(universe)
                local_update(side, "delete" if x in side.data else "insert", x)
                last[side.id] = x
        if round_ == 1:
            lines.append(encode_sync_message(prepare_sync(a, "B")))
        for src, dst in ((a, b), (b, a), (a, b), (b, a)):
            _deliver(src, dst, lines)
        assert a.data == b.data
        for side in (a, b):
            prune_log(side)
    return lines


def _workload_lines():
    """One seeded random workload, every sync split into up to 3 segments."""
    scenario = random_workload(
        peers=5, universe_size=40, ops_per_peer=80, sync_density=0.3, seed=13
    )
    neighbors = {name: [] for name, _ in scenario.peers}
    for x, y in scenario.links:
        neighbors[x].append(y)
        neighbors[y].append(x)
    peers = {
        name: init_peer(name, initial, tuple(neighbors[name]))
        for name, initial in scenario.peers
    }
    rng = random.Random(13)
    lines = []
    for event in scenario.events:
        if isinstance(event, OpEvent):
            local_update(peers[event.peer], event.intent, event.element)
        else:
            assert isinstance(event, SyncEvent)
            _deliver(peers[event.src], peers[event.dst], lines, 3, rng)
    assert len({frozenset(p.data) for p in peers.values()}) == 1
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_heal_exchange_wire_is_unchanged():
    assert _digest(_heal_lines()) == HEAL_DIGEST


def test_random_workload_wire_is_unchanged():
    assert _digest(_workload_lines()) == WORKLOAD_DIGEST
