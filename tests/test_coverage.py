"""The coverage premises of the peer protocol, under faulty delivery.

A peer counts an entry as held by a neighbor only when that neighbor's ack
map covers it (`peer._element_tails`), and marks a payload handled only by
merging the message's ack map (`peer.handle_sync`).  That is sound because of
two facts, checked here after every call of a seeded driver that delivers,
duplicates and drops messages and their segments in any order over trees of
2-4 peers, with local ops and pruning in between:

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
from ccss.peer import (
    handle_sync,
    init_peer,
    local_update,
    prepare_sync,
    prune_log,
    split_message,
)

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
    adjacent = {name: [] for name in names}
    for a, b in links:
        adjacent[a].append(b)
        adjacent[b].append(a)
    initial = frozenset(x for x in range(UNIVERSE) if rng.random() < 0.5)
    peers = {name: init_peer(name, initial, tuple(adjacent[name])) for name in names}
    bags = {pair: [] for a, b in links for pair in ((a, b), (b, a))}
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
            src, dst = rng.choice(sorted(bags))
            message = prepare_sync(peers[src], dst)
            bags[src, dst].extend(split_message(message, rng.randint(1, 3)))
        elif move < 0.9:
            full = sorted(pair for pair, bag in bags.items() if bag)
            if not full:
                continue
            bag = bags[rng.choice(full)]
            index = rng.randrange(len(bag))
            fate = rng.random()
            if fate < 0.15:
                del bag[index]  # lost
                continue
            # A duplicated message stays in the bag for a later delivery.
            message = bag[index] if fate < 0.4 else bag.pop(index)
            receiver = peers[message.receiver]
            if any(
                t.origin_seq > receiver.applied_seqs.get(t.origin, 0)
                for t in message.payload
            ):
                missed = uncovered(receiver.log, message.sender, message.ack)
                assert missed == [], (seed, step, message, missed)
                bitten += any(e.origin == message.sender for e in receiver.log)
            try:
                handle_sync(receiver, message)
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
