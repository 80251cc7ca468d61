"""The coverage premises of the peer protocol, under faulty delivery.

A peer counts an entry as held by a neighbor only when that neighbor's ack
map covers it (`peer._element_tails`), and marks a payload handled only by
merging the message's ack map (`peer.handle_sync`).  That is sound because of
two facts, checked here after every move of a seeded schedule on a
`sim.World` of 2-4 peers in a tree.  The schedule sends, delivers,
duplicates and drops messages and their segments in any order, each one
encoded and parsed back before it is delivered, with local ops and pruning
in between:

- every entry in a peer's log that a neighbor N originated is under the
  peer's `received_watermark` for N;
- when a message from N brings `handle_sync` pending entries, its ack map
  covers every entry in the receiver's log that N originated.

A third fact lets `peer.prepare_sync` judge an element tail by its first
entry alone: the entries of a peer's log under the ack map it last sent a
neighbor (`NeighborState.sent_ack`) are a prefix of the log.
"""

import random

from ccss.core import DivergenceError, InvalidDelete, InvalidInsert
from ccss.peer import encode_sync_message, local_update, parse_sync_message, prune_log
from ccss.sim import Scenario, World

UNIVERSE = 4
STEPS = 60


def uncovered(log, origin, acks):
    """Tags of the entries `origin` issued in `log` that `acks` does not cover."""
    return [
        (e.origin, e.origin_seq)
        for e in log
        if e.origin == origin and e.origin_seq > acks.get(origin, 0)
    ]


def drive(seed):
    """One seeded faulty run; returns how often the pending-message fact bit.

    It counts deliveries that brought pending entries to a receiver whose log
    held entries the sender originated.  A run stops at the first
    InvalidInsert, InvalidDelete or DivergenceError: reordered delivery can
    still diverge, since the protocol has no delivery contract yet, and these
    facts are about the runs that do not.
    """
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(rng.randint(2, 4))]
    links = [(names[rng.randrange(i)], names[i]) for i in range(1, len(names))]
    initial = frozenset(x for x in range(UNIVERSE) if rng.random() < 0.5)
    world = World(Scenario(tuple((n, initial) for n in names), tuple(links), ()))
    peers, channels = world.peers, world.channels
    bitten = 0

    for step in range(STEPS):
        move = rng.random()
        if move < 0.3:
            local_update(
                peers[rng.choice(names)],
                rng.choice(("insert", "delete")),
                rng.randrange(UNIVERSE),
            )
        elif move < 0.55:
            world.send(*rng.choice(sorted(channels)), rng.randint(1, 3))
        elif move < 0.9:
            full = sorted(link for link, queue in channels.items() if queue)
            if not full:
                continue
            link = rng.choice(full)
            queue = channels[link]
            index = rng.randrange(len(queue))
            fate = rng.random()
            if fate < 0.15:
                del queue[index]  # lost
                continue
            # Every delivered message crosses the wire.
            message = queue[index] = parse_sync_message(
                encode_sync_message(queue[index])
            )
            if fate < 0.4:
                queue.insert(index, message)  # duplicated, for a later delivery
            receiver = peers[message.receiver]
            if any(
                t.origin_seq > receiver.applied_seqs.get(t.origin, 0)
                for t in message.payload
            ):
                missed = uncovered(receiver.log, message.sender, message.ack)
                assert missed == [], (seed, step, message, missed)
                bitten += any(e.origin == message.sender for e in receiver.log)
            try:
                world.deliver(link, index)
            except (InvalidInsert, InvalidDelete, DivergenceError):
                return bitten
        else:
            prune_log(peers[rng.choice(names)])

        for peer in peers.values():
            for neighbor, state in peer.neighbors.items():
                missed = uncovered(peer.log, neighbor, state.received_watermark)
                assert missed == [], (seed, step, peer.id, neighbor, missed)
                sent = state.sent_ack
                told = [e.origin_seq <= sent.get(e.origin, 0) for e in peer.log]
                assert told == sorted(told, reverse=True), (seed, step, peer.id)
    return bitten


def test_ack_maps_cover_what_each_neighbor_originated():
    bitten = sum(drive(seed) for seed in range(1000))
    # The second fact must be exercised, not hold vacuously.
    assert bitten >= 500
