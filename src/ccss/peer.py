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
the sender only forms between operations above the ack map last sent to this
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
from itertools import starmap

from . import core
from .core import (
    CcssError,
    Element,
    Op,
    OpSeq,
    _KIND_OF_SIGN,
    _NOP,
    _trusted_op,
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
# A message line: four space-free fields after "MSG", in this order.
_MSG_RE = re.compile(r"MSG from=([^ ]*) to=([^ ]*) ack=([^ ]*) ops=([^ ]*)")
# A payload item whose element is an int in ASCII digits: its sign, element,
# origin and seq, each already in the form the general path would accept.
_INT_ITEM_RE = re.compile(rf"([+-])(-?[0-9]+)@{_TAG_RE.pattern}")
# An ops list of nothing but such items (groups dropped: they slow the match).
# The whole list must match before `_INT_ITEM_RE.findall` reads it: the
# token `5@P:1` rides as `+5@P:1@Q:2`, whose prefix reads as the int 5.
_INT_OPS_RE = re.compile(
    r"\[(?:{0}(?:,{0})*)?\]".format(_INT_ITEM_RE.pattern.replace("(", "(?:"))
)


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

    sent_ack is a copy of the ack map of the last message prepared for the
    neighbor, so whoever holds the message may edit it.  The neighbor cannot
    hold an entry above it, so such entries may be summarized per element,
    and it can honestly acknowledge none of this peer's own ops above it.
    """

    received_watermark: dict[PeerId, int] = field(default_factory=dict)
    known_entries: set[tuple[PeerId, int]] = field(default_factory=set)
    sent_ack: dict[PeerId, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TaggedOp:
    """An effectful op tagged with its origin: a log entry and a payload item."""

    op: Op
    origin: PeerId
    origin_seq: int


_set_op, _set_origin, _set_seq = (
    TaggedOp.op.__set__,
    TaggedOp.origin.__set__,
    TaggedOp.origin_seq.__set__,
)


def _trusted_tagged(op: Op, origin: PeerId, origin_seq: int) -> TaggedOp:
    """`TaggedOp(op, origin, origin_seq)` for fields a parser has already checked.

    Built as `core._trusted_op` builds an `Op`: through the slot descriptors,
    skipping the frozen `__init__`; the record is equal all the same.
    """
    t = object.__new__(TaggedOp)
    return _set_op(t, op) or _set_origin(t, origin) or _set_seq(t, origin_seq) or t


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
    hold any piece of the tail, so a tail whose first entry is under the ack
    map last sent to the neighbor (the entries under it are a log prefix) is
    repeated verbatim instead and the receiver sorts it out.
    """
    state = peer.neighbors.get(neighbor)
    if state is None:
        raise UnknownNeighbor(f"{peer.id}: unknown neighbor {neighbor}")

    tails = _element_tails(peer.log, state.received_watermark, state.known_entries)
    log = peer.log
    sent = state.sent_ack
    picked: list[int] = []
    for tail in tails.values():
        if not tail:
            continue
        first = log[tail[0]]
        if first.origin_seq <= sent.get(first.origin, 0):
            picked.extend(tail)
        elif len(tail) % 2 == 1:
            picked.append(tail[-1])
    # Sorted tail positions give log order without a second scan: each origin's
    # seqs must rise through a payload (split_message's ack caps, applied_seqs).
    picked.sort()
    state.sent_ack = dict(peer.applied_seqs)
    return SyncMessage(
        sender=peer.id,
        receiver=neighbor,
        payload=tuple(log[i] for i in picked),
        ack=dict(peer.applied_seqs),
    )


def handle_sync(peer: PeerState, msg: SyncMessage) -> OpSeq:
    """Apply one sync message; returns the operations actually applied.

    Payload entries already covered by this peer's own coverage map are
    skipped, so redelivery is harmless.  What remains is normalized first
    when the payload repeats an element: a surviving delete/reinsert pair
    nets to nothing here and must not be matched against local operations.
    The survivors are then rewritten against the per-element net of local
    log entries the sender had not seen; when the ack map covers this peer's
    coverage map, the sender has seen them all and the log is not scanned.
    The entries whose op survives are applied and logged as received, tags
    intact, ready to propagate onward; merging the ack map then covers them.
    One pass over the payload both checks it and picks what is new here.
    Stale or empty messages are normal and return an empty tuple.  A
    payload that no log could have produced raises ValueError naming the
    first bad entry: one outside its own ack map, one whose origin's seqs do
    not rise, a Nop, or one repeating the kind of the previous op on its
    element.  So does an ack map claiming an own op above the ack map last
    sent to the sender, and so does what the wire could not carry onward: a
    new ack origin that is not a peer id, or a new entry whose element fails
    `core.is_wire_element`.  An op that is not effectful here raises
    InvalidInsert or InvalidDelete.  Every error leaves the peer unchanged.
    """
    if msg.receiver != peer.id:
        raise ValueError(f"message for {msg.receiver} handled by {peer.id}")
    state = peer.neighbors.get(msg.sender)
    if state is None:
        raise UnknownNeighbor(f"{peer.id}: unknown neighbor {msg.sender}")
    # On a forest, own ops reach the sender only in this peer's messages.
    claimed = msg.ack.get(peer.id, 0)
    if claimed > state.sent_ack.get(peer.id, 0):
        raise ValueError(f"ack map claims {peer.id}:{claimed}, not yet sent")
    # A relay re-encodes what it merges and logs, so both must cross the wire.
    # Every payload origin is under the ack map, and an origin already in
    # applied_seqs is this peer's id or passed here before.
    for origin in msg.ack:
        if origin not in peer.applied_seqs and not _PEER_ID_RE.fullmatch(origin):
            raise ValueError(f"bad peer id in ack map: {origin!r}")
    # A payload is a slice of a log: under its own ack map, each origin's
    # seqs rising, every op effectful, and each element's kinds alternating.
    # The same pass collects the entries not yet handled here.
    last_seq: dict[PeerId, int] = {}
    last_kind: dict[Element, core.OpKind] = {}
    pending: list[TaggedOp] = []
    unwired: TaggedOp | None = None
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
        if seq > peer.applied_seqs.get(origin, 0):
            pending.append(t)
            if unwired is None and not is_wire_element(op.element):
                unwired = t
    if unwired is not None:
        shown = describe_element(unwired.op.element)
        raise ValueError(f"element cannot cross the wire: {shown}")

    applied: list[Op] = []
    # An ack-only or fully redelivered message carries nothing new: only
    # its ack map is merged below, and the log is not scanned.
    if pending:
        pending_ops = tuple(t.op for t in pending)
        # Only ops sharing an element can cancel, and the check above refuses
        # Nops, so a payload without a repeated element is its own normal form.
        if len(last_kind) < len(msg.payload):
            pending_ops = normalize(pending_ops)
        # The rewrite baseline: per element, the net news among local
        # entries whose intent the sender has not seen.  Twin-matched entries
        # count as seen; the sender holds the same intent under its own tag,
        # so its later ops are not concurrent with them.  Every log entry is
        # under applied_seqs, so an ack map covering that leaves no news.
        # transform_remote reads kinds per element, so any order serves.
        survivors: dict[Element, TaggedOp] = {}
        if any(s > msg.ack.get(o, 0) for o, s in peer.applied_seqs.items()):
            tails = _element_tails(peer.log, msg.ack, state.known_entries)
            for element, tail in tails.items():
                if len(tail) % 2 == 1:
                    survivors[element] = peer.log[tail[-1]]
        unseen_by_sender = tuple(t.op for t in survivors.values())
        rewritten = transform_remote(unseen_by_sender, pending_ops)
        # Normalized ops touch distinct elements, so each one can be checked
        # against the unchanged set before anything is mutated.
        for op in rewritten:
            if not is_valid(peer.data, op):
                raise ineffective(op)

        # A rewrite only ever yields Nop, so a survivor is tagged.op itself.
        for tagged, norm_op, op in zip(pending, pending_ops, rewritten):
            if op.kind is not _NOP:
                peer.data ^= {op.element}
                peer.log.append(tagged)
                applied.append(op)
            elif norm_op.kind is not _NOP:
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
    # so the twin marks can forget them.
    if state.known_entries:
        watermark = state.received_watermark
        state.known_entries -= {
            k for k in state.known_entries if k[1] <= watermark.get(k[0], 0)
        }
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
    that parses.  Decoding is linear in the number of payload entries.  An
    ops list whose every item is `<sign><int>@<peer id>:<seq>` in ASCII
    digits, with no whitespace (what the encoder writes for int elements),
    is read by one regex; any other list goes item by item through
    `core.parse_element`, the grammar's one definition, with equal results.
    """
    match = _MSG_RE.fullmatch(line.strip())
    if match is None:
        raise ValueError(f"malformed message: {line!r}")
    sender, receiver, ack_text, ops_text = match.groups()
    for key, value in (("from", sender), ("to", receiver)):
        if not _PEER_ID_RE.fullmatch(value):
            raise ValueError(f"bad peer id in {key}=: {value!r}")

    ack: dict[PeerId, int] = {}
    if ack_text:
        for item in ack_text.split(","):
            tag = _TAG_RE.fullmatch(item)
            if tag is None:
                raise ValueError(f"malformed ack item: {item!r}")
            origin, seq = tag.groups()
            if origin in ack:
                raise ValueError(f"ack map names {origin} twice")
            ack[origin] = int(seq)

    if _INT_OPS_RE.fullmatch(ops_text):
        payload = starmap(_parse_int_item, _INT_ITEM_RE.findall(ops_text))
    else:
        payload = parse_list(ops_text, "[]", _parse_tagged, "ops list")
    return SyncMessage(
        sender=sender, receiver=receiver, payload=tuple(payload), ack=ack
    )


def _parse_int_item(sign: str, x: str, origin: str, seq: str) -> TaggedOp:
    """The groups of one `_INT_ITEM_RE` match, which checked them all.

    The element is read before the seq, as `_parse_tagged` reads them, so an
    int too long for `int()` is refused with the same error at the same item.
    """
    return _trusted_tagged(_trusted_op(_KIND_OF_SIGN[sign], int(x)), origin, int(seq))


def _parse_tagged(item: str) -> TaggedOp:
    body, at, tag_text = item.rpartition("@")
    tag = _TAG_RE.fullmatch(tag_text)
    if not at or tag is None:
        raise ValueError(f"malformed payload item: {item!r}")
    origin, seq = tag.groups()
    return TaggedOp(parse_op(body), origin, int(seq))
