"""Replica peers: operation logs, acknowledged sync, and log pruning.

Each peer owns a set plus a log of the effectful ops it has applied, in
applied order: TaggedOps (op, origin peer, per-origin sequence number), the
same records the wire carries.  Peers exchange asymmetric sync messages: the
receiver rewrites incoming ops against its own unseen suffix, applies the
survivors and logs their records as received, so they propagate onward.

Wire contract: a message carries a payload (origin-tagged operations) and an
acknowledgment map (highest origin_seq per origin the sender has applied),
which covers the payload.  For every o:s under the ack map, the receiver
either already holds o:s, or this message's payload carries it, or its effect
cancels against another operation covered by the same message (a pairing
the sender only forms between operations never previously offered to this
receiver, so the receiver cannot hold half of the pair), or it duplicates
an operation the receiver already holds.  The receiver therefore treats
everything under the ack map as delivered, and merging that map is the only
way its coverage moves: canceling pairs vanish without stalling pruning.

Progress: each neighbor's ack maps, merged by per-origin maximum, are the one
record of what that neighbor holds.  Sync payloads skip what it covers, and
the log prefix every neighbor's map covers may be pruned (the per-neighbor
ack map of delta-state anti-entropy; Almeida, Shoker and Baquero, JPDC 2018).

Precondition: the links between peers form a forest.  A peer that strikes
out a concurrent duplicate intent acknowledges both tags onward, so on a
cycle a peer reached by a second path takes the struck tag as news on top of
its own copy and fails with InvalidInsert or InvalidDelete.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import core
from .core import (
    CcssError,
    Element,
    Op,
    OpSeq,
    _NOP,
    describe_element,
    ineffective,
    is_valid,
    is_wire_element,
    make_delete,
    make_insert,
    normalize,
    parse_list,
    parse_op,
    render_op,
    transform_remote,
)

PeerId = str

_PEER_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")
# An ack item or a payload tag: a peer id, then a sequence number in ASCII
# digits (`[0-9]`, unlike `\d`, matches no other script's digits).
_TAG_RE = re.compile(rf"({_PEER_ID_RE.pattern}):([0-9]+)")


class DuplicateNeighbor(CcssError):
    """A peer was configured with itself or a repeated peer as neighbor."""


class UnknownNeighbor(CcssError):
    """Sync was attempted with a peer that is not a configured neighbor."""


@dataclass
class NeighborState:
    """What a peer knows about one neighbor's progress.

    The neighbor's id is its key in `PeerState.neighbors`.

    received_watermark: highest origin_seq per origin the neighbor is known
    to have applied, the merge of every ack map it sent.  It only grows, and
    it is the one record of the neighbor's progress: sync and pruning both
    read it.

    known_entries holds log entries the neighbor provably holds the intent
    of even though its acknowledgments do not cover them yet: when an
    incoming op is struck out as a duplicate of a local entry, the two are
    the same intent, so sending the local entry back would double-apply it.

    offered_entries records entries actually placed in a payload for this
    neighbor and not yet acknowledged.  Entries never offered can be
    summarized per element (the neighbor cannot hold any of them), while an
    offered entry may already sit applied at the neighbor, so any element
    tail containing one is repeated verbatim until acknowledged.
    """

    received_watermark: dict[PeerId, int] = field(default_factory=dict)
    known_entries: set[tuple[PeerId, int]] = field(default_factory=set)
    offered_entries: set[tuple[PeerId, int]] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class TaggedOp:
    """An effectful op tagged with its origin: a log entry and a payload item."""

    op: Op
    origin: PeerId
    origin_seq: int


@dataclass(frozen=True)
class SyncMessage:
    """One sync payload.  Treat as immutable once constructed."""

    sender: PeerId
    receiver: PeerId
    payload: tuple[TaggedOp, ...]
    ack: dict[PeerId, int]


@dataclass
class PeerState:
    """A replica: its set, log, and per-neighbor progress.

    log holds the TaggedOps applied here, local or remote, in the order they
    were applied; position in it is the local order.
    applied_seqs is the peer's own coverage map (highest origin_seq handled
    per origin, itself included); it makes redelivery idempotent.
    """

    id: PeerId
    data: set
    log: list[TaggedOp]
    neighbors: dict[PeerId, NeighborState]
    applied_seqs: dict[PeerId, int]


def init_peer(
    peer_id: PeerId, initial: frozenset, neighbors: tuple[PeerId, ...]
) -> PeerState:
    if not _PEER_ID_RE.fullmatch(peer_id):
        raise ValueError(f"bad peer id: {peer_id!r}")
    seen: dict[PeerId, NeighborState] = {}
    for n in neighbors:
        if not _PEER_ID_RE.fullmatch(n):
            raise ValueError(f"{peer_id}: bad neighbor id: {n!r}")
        if n == peer_id or n in seen:
            raise DuplicateNeighbor(f"{peer_id}: duplicate neighbor {n}")
        seen[n] = NeighborState()
    return PeerState(
        id=peer_id,
        data=set(initial),
        log=[],
        neighbors=seen,
        applied_seqs={},
    )


def local_update(peer: PeerState, intent: str, x: Element) -> Op | None:
    """Perform an insert/delete intent locally.

    Returns the applied operation, or None when the intent had no effect
    (inserting a present element, deleting an absent one).  No-effect intents
    leave no trace: nothing is logged and nothing propagates.  An element
    the wire cannot carry intact (see `core.is_wire_element`) is refused
    with ValueError.
    """
    if not is_wire_element(x):
        raise ValueError(f"element cannot cross the wire: {describe_element(x)}")
    if intent == "insert":
        op = make_insert(peer.data, x)
    elif intent == "delete":
        op = make_delete(peer.data, x)
    else:
        raise ValueError(f"unknown intent: {intent!r}")
    if op.is_nop:
        return None
    peer.data = set(core.apply_op(peer.data, op))
    seq = peer.applied_seqs.get(peer.id, 0) + 1
    peer.applied_seqs[peer.id] = seq
    peer.log.append(TaggedOp(op, peer.id, seq))
    return op


def _element_tails(log, acks, known) -> dict[Element, list[int]]:
    """Per element, the log positions after the last entry a neighbor has.

    The neighbor has the entries under its ack map `acks` and those in
    `known` (the same intent under another tag).  On a forest that includes
    every entry it originated: each came here in the neighbor's own message,
    whose ack map covered it (`handle_sync` refuses one that does not) and
    went into the `received_watermark` that `prepare_sync` passes, and a
    message bringing `handle_sync` news acks all its sender acked before.
    Only the trailing run after the last such entry carries news on an
    element.  Within a run the ops alternate (the log is a valid sequence),
    so an even run nets to nothing and an odd run nets to its final op.
    """
    tails: dict[Element, list[int]] = {}
    for i, e in enumerate(log):
        if e.origin_seq <= acks.get(e.origin, 0) or (e.origin, e.origin_seq) in known:
            tails[e.op.element] = []
        else:
            tail = tails.get(e.op.element)
            if tail is None:
                tails[e.op.element] = [i]
            else:
                tail.append(i)
    return tails


def prepare_sync(peer: PeerState, neighbor: PeerId) -> SyncMessage:
    """Build the message bringing `neighbor` up to date with this peer.

    Acknowledged progress is recorded only when acks come back, so a lost
    message is repaired by simply preparing again: everything still
    unacknowledged is resent and the receiver deduplicates.  Per element,
    the unknown tail of the log is summarized: an even tail is mutually
    canceling and avoids the wire entirely (the ack map still covers it,
    see the wire contract above) and an odd tail is represented by its
    final op alone.  Summarizing is only sound while the receiver cannot
    hold any piece of the tail, so a tail containing a previously offered
    entry is repeated verbatim instead and the receiver sorts it out.
    """
    state = peer.neighbors.get(neighbor)
    if state is None:
        raise UnknownNeighbor(f"{peer.id}: unknown neighbor {neighbor}")

    tails = _element_tails(peer.log, state.received_watermark, state.known_entries)
    log = peer.log
    offered = state.offered_entries
    picked: list[int] = []
    for tail in tails.values():
        if not tail:
            continue
        if offered and any((log[i].origin, log[i].origin_seq) in offered for i in tail):
            picked.extend(tail)
        elif len(tail) % 2 == 1:
            picked.append(tail[-1])
    # Sorted tail positions give log order without a second scan: each origin's
    # seqs must rise through a payload (split_message's ack caps, applied_seqs).
    picked.sort()
    payload = tuple(log[i] for i in picked)
    offered |= {(t.origin, t.origin_seq) for t in payload}
    return SyncMessage(
        sender=peer.id,
        receiver=neighbor,
        payload=payload,
        ack=dict(peer.applied_seqs),
    )


def handle_sync(peer: PeerState, msg: SyncMessage) -> OpSeq:
    """Apply one sync message; returns the operations actually applied.

    Payload entries already covered by this peer's own coverage map are
    skipped, so redelivery is harmless.  What remains is normalized first:
    a surviving delete/reinsert pair nets to nothing here and must not be
    matched against local operations.  The survivors are then rewritten
    against the per-element net of local log entries the sender had not
    seen; the entries whose op survives are applied and logged as received,
    tags intact, ready to propagate onward; merging the ack map then covers
    them.  Stale or empty messages are normal and return an empty tuple.  A
    payload that no log could have produced raises ValueError naming the
    first bad entry: one outside its own ack map, one whose origin's seqs do
    not rise, a Nop, or one repeating the kind of the previous op on its
    element.  So does an ack map claiming an op of this peer's own that it
    has not issued.  An op that is not effectful here raises InvalidInsert
    or InvalidDelete.  Every error leaves the peer unchanged.
    """
    if msg.receiver != peer.id:
        raise ValueError(f"message for {msg.receiver} handled by {peer.id}")
    state = peer.neighbors.get(msg.sender)
    if state is None:
        raise UnknownNeighbor(f"{peer.id}: unknown neighbor {msg.sender}")
    # Only this peer issues its own tags, so no honest ack map runs ahead.
    claimed = msg.ack.get(peer.id, 0)
    if claimed > peer.applied_seqs.get(peer.id, 0):
        raise ValueError(f"ack map claims {peer.id}:{claimed}, never issued here")
    # A payload is a slice of a log: under its own ack map, each origin's
    # seqs rising, every op effectful, and each element's kinds alternating.
    last_seq: dict[PeerId, int] = {}
    last_kind: dict[Element, core.OpKind] = {}
    for t in msg.payload:
        origin, seq, op = t.origin, t.origin_seq, t.op
        if seq > msg.ack.get(origin, 0):
            raise ValueError(f"entry {origin}:{seq} outruns the ack map")
        prev = last_seq.get(origin, 0)
        if seq <= prev:
            raise ValueError(
                f"entry {origin}:{seq} does not rise above {origin}:{prev}"
            )
        if op.kind is _NOP:
            raise ValueError(f"entry {origin}:{seq} carries no operation")
        if op.kind is last_kind.get(op.element):
            raise ValueError(
                f"entry {origin}:{seq} repeats the previous op "
                f"on {core.render_element(op.element)}"
            )
        last_seq[origin] = seq
        last_kind[op.element] = op.kind

    pending = [
        t for t in msg.payload if t.origin_seq > peer.applied_seqs.get(t.origin, 0)
    ]

    applied: list[Op] = []
    # An ack-only or fully redelivered message carries nothing new: only
    # its ack map is merged below, and the log is not scanned.
    if pending:
        # The rewrite baseline: per element, the net news among local
        # entries whose intent the sender has not seen.  Twin-matched entries
        # count as seen; the sender holds the same intent under its own tag,
        # so its later ops are not concurrent with them.
        # transform_remote reads kinds per element, so any order serves.
        tails = _element_tails(peer.log, msg.ack, state.known_entries)
        survivors: dict[Element, TaggedOp] = {}
        for element, tail in tails.items():
            if len(tail) % 2 == 1:
                survivors[element] = peer.log[tail[-1]]
        unseen_by_sender = tuple(t.op for t in survivors.values())
        pending_ops = normalize(tuple(t.op for t in pending))
        rewritten = transform_remote(unseen_by_sender, pending_ops)
        # Normalized ops touch distinct elements, so each one can be checked
        # against the unchanged set before anything is mutated.
        for op in rewritten:
            if not is_valid(peer.data, op):
                raise ineffective(op)

        # A rewrite only ever yields Nop, so a survivor is tagged.op itself.
        for tagged, norm_op, op in zip(pending, pending_ops, rewritten):
            if not op.is_nop:
                peer.data ^= {op.element}
                peer.log.append(tagged)
                applied.append(op)
            elif not norm_op.is_nop:
                # Struck out as a duplicate: the sender owns the same intent,
                # so the matching local entry must never be sent back to it.
                twin = survivors[norm_op.element]
                state.known_entries.add((twin.origin, twin.origin_seq))

    # Everything under the ack map is now covered here: delivered just now,
    # known before, or canceled inside this very message.
    for origin, seq in msg.ack.items():
        if seq > peer.applied_seqs.get(origin, 0):
            peer.applied_seqs[origin] = seq
        if seq > state.received_watermark.get(origin, 0):
            state.received_watermark[origin] = seq
    # Acknowledged entries leave the candidate pool by the ack map filter,
    # so the per-entry exception sets can forget them.
    for marks in (state.known_entries, state.offered_entries):
        stale = {
            k for k in marks if k[1] <= state.received_watermark.get(k[0], 0)
        }
        marks -= stale
    return tuple(applied)


def prune_log(peer: PeerState) -> int:
    """Drop the log prefix every neighbor has acknowledged; returns the count.

    A neighbor has acknowledged an entry when its origin_seq is under that
    neighbor's ack map.  Ack maps only grow, so such an entry is settled for
    every neighbor: in the element tails of `prepare_sync` and `handle_sync`
    it can only end a tail, never join one.  Dropping a prefix, never an
    entry whose predecessors stay, therefore leaves every tail as it was.
    A peer with no neighbors answers to nobody and prunes everything.
    """
    acks = [s.received_watermark for s in peer.neighbors.values()]
    pruned = 0
    for e in peer.log:
        if not all(e.origin_seq <= a.get(e.origin, 0) for a in acks):
            break
        pruned += 1
    del peer.log[:pruned]
    return pruned


def split_message(msg: SyncMessage, parts: int) -> list[SyncMessage]:
    """Split a message into consecutive segments that deliver the same state.

    Each segment keeps the wire contract honest: its ack map only covers
    origin sequence numbers whose content is carried by this or an earlier
    segment (or was already covered by the original ack).  Handling the
    segments in order, even interleaved with other traffic, is equivalent to
    handling the original message.

    Ops touching the same element always ride in the same segment.  The
    receiver cancels and rewrites ops per element within one message, so
    tearing such a group apart would apply ops that the whole message nets
    away.  When grouping leaves fewer cut points than requested, fewer
    segments come back.
    """
    payload = msg.payload
    if parts <= 1 or len(payload) <= 1:
        return [msg]
    last_use = {t.op.element: i for i, t in enumerate(payload)}
    # Forward: a segment may end where no element seen so far recurs.
    ends: list[int] = []
    horizon = 0
    for i, t in enumerate(payload):
        horizon = max(horizon, last_use[t.op.element])
        if i == horizon:
            ends.append(i + 1)
    parts = min(parts, len(ends))
    if parts == 1:
        return [msg]
    # The first `extra` segments take one element group more than the rest.
    size, extra = divmod(len(ends), parts)
    cuts = [0] + [ends[k * size + min(k, extra) - 1] for k in range(1, parts + 1)]
    # Backward: cap each ack map below the first seq a later segment carries.
    out: list[SyncMessage] = []
    first_later: dict[PeerId, int] = {}
    for i in range(parts, 0, -1):
        chunk = payload[cuts[i - 1] : cuts[i]]
        ack: dict[PeerId, int] = {}
        for origin, seq in msg.ack.items():
            capped = min(seq, first_later.get(origin, seq + 1) - 1)
            if capped > 0:
                ack[origin] = capped
        out.append(SyncMessage(msg.sender, msg.receiver, chunk, ack))
        for t in reversed(chunk):
            first_later[t.origin] = t.origin_seq
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Wire encoding


def encode_sync_message(msg: SyncMessage) -> str:
    ack = ",".join(f"{o}:{s}" for o, s in sorted(msg.ack.items()))
    ops = ",".join(
        f"{render_op(t.op)}@{t.origin}:{t.origin_seq}" for t in msg.payload
    )
    return f"MSG from={msg.sender} to={msg.receiver} ack={ack} ops=[{ops}]"


def parse_sync_message(line: str) -> SyncMessage:
    """Inverse of `encode_sync_message`; any other line raises ValueError.

    `from`, `to`, ack origins and payload tags must be peer ids (as
    `init_peer` requires), so whatever a relay logs re-encodes to a line
    that parses.  Decoding is linear in the number of payload entries.
    """
    tokens = line.strip().split(" ")
    keys = ("from", "to", "ack", "ops")
    if len(tokens) != 5 or tokens[0] != "MSG":
        raise ValueError(f"malformed message: {line!r}")
    values: dict[str, str] = {}
    for token, expected in zip(tokens[1:], keys):
        key, eq, value = token.partition("=")
        if not eq or key != expected:
            raise ValueError(f"malformed message field: {token!r}")
        values[key] = value
    for key in ("from", "to"):
        if not _PEER_ID_RE.fullmatch(values[key]):
            raise ValueError(f"bad peer id in {key}=: {values[key]!r}")

    ack: dict[PeerId, int] = {}
    if values["ack"]:
        for item in values["ack"].split(","):
            tag = _TAG_RE.fullmatch(item)
            if tag is None:
                raise ValueError(f"malformed ack item: {item!r}")
            origin, seq = tag.groups()
            if origin in ack:
                raise ValueError(f"ack map names {origin} twice")
            ack[origin] = int(seq)

    return SyncMessage(
        sender=values["from"],
        receiver=values["to"],
        payload=tuple(parse_list(values["ops"], "[]", _parse_tagged, "ops list")),
        ack=ack,
    )


def _parse_tagged(item: str) -> TaggedOp:
    body, at, tag_text = item.rpartition("@")
    tag = _TAG_RE.fullmatch(tag_text)
    if not at or tag is None:
        raise ValueError(f"malformed payload item: {item!r}")
    origin, seq = tag.groups()
    return TaggedOp(parse_op(body), origin, int(seq))
