"""Peer state machine: logs, sync exchange, pruning, segmentation, wire."""

import copy
import dataclasses
import gc
import pickle
import re
import sys
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ccss.core import (
    InvalidDelete,
    InvalidInsert,
    Op,
    OpKind,
    Triple,
    describe_element,
    ineffective,
    is_valid,
    is_wire_element,
    normalize,
    parse_element_set,
    render_element,
    render_element_set,
    transform_remote,
)
from ccss.peer import (
    _PEER_ID_RE,
    DuplicateNeighbor,
    SyncMessage,
    TaggedOp,
    UnknownNeighbor,
    _element_tails,
    encode_sync_message,
    handle_sync,
    init_peer,
    local_update,
    parse_sync_message,
    prepare_sync,
    prune_log,
    split_message,
)
from ccss.sim import World, parse_scenario, reference_run, run_scenario


def make_pair(initial=frozenset({1, 2})):
    p = init_peer("P", initial, ("Q",))
    q = init_peer("Q", initial, ("P",))
    return p, q


def exchange(src, dst):
    return handle_sync(dst, prepare_sync(src, dst.id))


# ---------------------------------------------------------------------------
# init_peer / local_update


def test_init_peer_fields():
    p = init_peer("P", frozenset({1, 2}), ("Q",))
    assert p.data == {1, 2}
    assert p.log == []
    assert set(p.neighbors) == {"Q"}
    assert p.neighbors["Q"].received_watermark == {}
    assert p.applied_seqs == {}


def test_init_peer_rejects_self_and_duplicates():
    with pytest.raises(DuplicateNeighbor):
        init_peer("P", frozenset({1}), ("P",))
    with pytest.raises(DuplicateNeighbor):
        init_peer("P", frozenset(), ("Q", "Q"))
    with pytest.raises(ValueError):
        init_peer("P Q", frozenset(), ())


@pytest.mark.parametrize("bad", ["b)", "Q R", "", "P:1"])
def test_init_peer_refuses_neighbor_ids_the_wire_cannot_name(bad):
    # Every message to such a neighbor would fail `parse_sync_message`.
    with pytest.raises(ValueError, match=re.escape(f"bad neighbor id: {bad!r}")):
        init_peer("P", frozenset(), ("Q", bad))


def test_isolated_peer():
    p = init_peer("P", frozenset(), ())
    assert p.neighbors == {}
    assert local_update(p, "insert", 1) == Op.insert(1)
    assert p.data == {1}


def test_local_update_applies_and_logs():
    p = init_peer("P", frozenset({1, 2}), ("Q",))
    assert local_update(p, "insert", 3) == Op.insert(3)
    assert local_update(p, "delete", 3) == Op.delete(3)
    assert p.data == {1, 2}
    # The log holds the wire's records, in the order they were applied.
    assert p.log == [TaggedOp(Op.insert(3), "P", 1), TaggedOp(Op.delete(3), "P", 2)]


def test_local_update_no_effect_leaves_no_trace():
    p = init_peer("P", frozenset({1, 2}), ("Q",))
    assert local_update(p, "insert", 2) is None
    assert local_update(p, "delete", 9) is None
    assert p.log == []
    assert p.applied_seqs == {}


def test_local_update_rejects_unknown_intent():
    p = init_peer("P", frozenset(), ())
    with pytest.raises(ValueError):
        local_update(p, "upsert", 1)


@pytest.mark.parametrize(
    "x", [3.5, True, "5", "", "a b", "x,y", "x]", Triple("x,y", 1, 2),
          Decimal(5), Fraction(5), Triple("a", "k", Decimal(1)),
          # Longer than sys.get_int_max_str_digits(): str() refuses them.
          pytest.param(10**5000, id="10**5000"),
          pytest.param(-(10**5000), id="-10**5000")]
)
def test_local_update_refuses_elements_the_wire_cannot_carry(x):
    p = init_peer("P", frozenset(), ("Q",))
    for intent in ("insert", "delete"):
        with pytest.raises(ValueError, match="cannot cross the wire"):
            local_update(p, intent, x)
    assert p.data == set() and p.log == [] and p.applied_seqs == {}


@pytest.mark.parametrize(
    "x", [0, -7, 10**30, "a", "x-1", "a@b:2", Triple("a", 7, 1),
          Triple(Triple("v", "k", -1), 2, 3)]
)
def test_local_update_accepts_ints_tokens_and_triples(x):
    p = init_peer("P", frozenset(), ("Q",))
    assert local_update(p, "insert", x) == Op.insert(x)
    assert p.data == {x}


def _elements(leaf):
    return st.recursive(
        leaf, lambda inner: st.builds(Triple, inner, inner, st.integers()), max_leaves=6
    )


@settings(deadline=None)
@given(st.lists(_elements(st.integers() | st.booleans() | st.floats() | st.text())))
def test_accepted_elements_survive_the_wire_and_the_set_text(candidates):
    p = init_peer("P", frozenset(), ("Q",))
    for x in candidates:
        try:
            local_update(p, "insert", x)
        except ValueError:
            pass
    msg = prepare_sync(p, "Q")
    assert parse_sync_message(encode_sync_message(msg)) == msg
    assert parse_element_set(render_element_set(p.data)) == p.data


# ---------------------------------------------------------------------------
# prepare_sync


def test_prepare_cancelled_pair_sends_nothing_but_acks():
    p, _ = make_pair()
    local_update(p, "insert", 3)
    local_update(p, "delete", 3)
    msg = prepare_sync(p, "Q")
    assert msg.payload == ()
    # The coverage map still accounts for the pair, so the receiver can
    # treat both ops as delivered.
    assert msg.ack == {"P": 2}


def test_prepare_sends_net_effect_in_log_order():
    _, q = make_pair()
    local_update(q, "delete", 2)
    local_update(q, "insert", 3)
    msg = prepare_sync(q, "P")
    assert [t.op for t in msg.payload] == [Op.delete(2), Op.insert(3)]
    assert [(t.origin, t.origin_seq) for t in msg.payload] == [("Q", 1), ("Q", 2)]


def test_prepare_empty_log():
    p, _ = make_pair()
    msg = prepare_sync(p, "Q")
    assert msg.payload == ()
    assert msg.ack == {}


def test_prepare_unknown_neighbor():
    p, _ = make_pair()
    with pytest.raises(UnknownNeighbor):
        prepare_sync(p, "R")


def test_prepare_resends_offered_tail_verbatim_after_loss():
    p, q = make_pair(frozenset())
    local_update(p, "insert", 1)
    lost = prepare_sync(p, "Q")
    assert [t.op for t in lost.payload] == [Op.insert(1)]
    # The message never arrives.  A later delete makes the element's pending
    # run even, but the receiver may already hold the offered insert, so the
    # whole run is repeated instead of summarized away.
    local_update(p, "delete", 1)
    retry = prepare_sync(p, "Q")
    assert [t.op for t in retry.payload] == [Op.insert(1), Op.delete(1)]
    handle_sync(q, retry)
    assert q.data == set()
    assert q.applied_seqs == {"P": 2}


def test_prepare_repeats_a_tail_under_the_last_ack_map_sent():
    # A tail is repeated verbatim when its first entry is under the ack map
    # last sent, even if that message summarized the entry away.  An earlier
    # rule repeated only tails holding an entry actually sent, and so sent
    # +1@P:3 alone here; this test fails under it by design.
    p, q = make_pair(frozenset())
    local_update(p, "insert", 1)
    local_update(p, "delete", 1)
    lost = prepare_sync(p, "Q")
    assert lost.payload == () and lost.ack == {"P": 2}
    local_update(p, "insert", 1)
    retry = prepare_sync(p, "Q")
    assert [(t.op, t.origin_seq) for t in retry.payload] == [
        (Op.insert(1), 1),
        (Op.delete(1), 2),
        (Op.insert(1), 3),
    ]
    assert handle_sync(q, retry) == (Op.insert(1),)
    # Once Q's reply covers what P told it, a fresh canceling pair is
    # summarized away again.
    exchange(q, p)
    local_update(p, "insert", 2)
    local_update(p, "delete", 2)
    fresh = prepare_sync(p, "Q")
    assert fresh.payload == () and fresh.ack == {"P": 5}
    handle_sync(q, fresh)
    assert p.data == q.data == {1}


def test_prepare_summarizes_virgin_run_to_final_op():
    p, _ = make_pair(frozenset())
    local_update(p, "insert", 1)
    local_update(p, "delete", 1)
    local_update(p, "insert", 1)
    msg = prepare_sync(p, "Q")
    # Odd run on one element, never offered before: only the net op goes out.
    assert [(t.op, t.origin_seq) for t in msg.payload] == [(Op.insert(1), 3)]


# ---------------------------------------------------------------------------
# handle_sync


def test_two_peer_reconciliation():
    p, q = make_pair()
    local_update(p, "insert", 3)
    local_update(p, "delete", 3)
    local_update(q, "delete", 2)
    local_update(q, "insert", 3)

    assert exchange(p, q) == ()  # the pair cancels on the wire
    assert q.data == {1, 3}
    applied = exchange(q, p)
    assert applied == (Op.delete(2), Op.insert(3))
    assert p.data == {1, 3}
    assert p.log == [
        TaggedOp(Op.insert(3), "P", 1),
        TaggedOp(Op.delete(3), "P", 2),
        TaggedOp(Op.delete(2), "Q", 1),
        TaggedOp(Op.insert(3), "Q", 2),
    ]


def test_merge_works_on_net_effects():
    # From {1}, P deletes 1 while Q deletes and reinserts it.  Q's pair nets
    # to nothing, so P's concurrent delete meets no reinsertion: both end at
    # {}.  The simulator and the independent replay agree.
    p, q = make_pair(frozenset({1}))
    local_update(p, "delete", 1)
    local_update(q, "delete", 1)
    local_update(q, "insert", 1)
    exchange(p, q)
    exchange(q, p)
    assert p.data == q.data == set()

    sc = parse_scenario(
        "PEER P {1}\nPEER Q {1}\nLINK P Q\n"
        "OP P delete 1\nOP Q delete 1\nOP Q insert 1\nSYNC P Q\nSYNC Q P\n"
    )
    empty = {"P": frozenset(), "Q": frozenset()}
    assert run_scenario(sc, seed=0).final_states == reference_run(sc) == empty


def test_handle_empty_payload_still_advances_watermarks():
    p, q = make_pair()
    local_update(p, "insert", 3)
    local_update(p, "delete", 3)
    msg = prepare_sync(p, "Q")
    assert msg.payload == ()
    assert handle_sync(q, msg) == ()
    assert q.applied_seqs == {"P": 2}
    assert q.neighbors["P"].received_watermark == {"P": 2}


def test_handle_redelivery_is_idempotent():
    p, q = make_pair()
    local_update(p, "insert", 3)
    msg = prepare_sync(p, "Q")
    assert handle_sync(q, msg) == (Op.insert(3),)
    before = (set(q.data), list(q.log))
    assert handle_sync(q, msg) == ()
    assert (set(q.data), list(q.log)) == before
    # Q's reply carries only its ack map; it covers what P told Q and
    # changes nothing else at P.
    assert p.neighbors["Q"].sent_ack == {"P": 1}
    reply = prepare_sync(q, "P")
    assert reply.payload == () and reply.ack == {"P": 1}
    before = (set(p.data), list(p.log))
    assert handle_sync(p, reply) == ()
    assert p.neighbors["Q"].received_watermark == p.neighbors["Q"].sent_ack
    assert (set(p.data), list(p.log)) == before


def test_handle_concurrent_same_op_strikes_duplicate():
    p, q = make_pair()
    local_update(p, "insert", 3)
    local_update(q, "insert", 3)
    assert exchange(p, q) == ()  # duplicate intent, applied nowhere twice
    assert q.data == {1, 2, 3}
    assert exchange(q, p) == ()
    assert p.data == {1, 2, 3}
    # Neither peer ever echoes the shared intent back again.
    assert prepare_sync(p, "Q").payload == ()
    assert prepare_sync(q, "P").payload == ()


def test_handle_wrong_receiver_and_unknown_sender():
    p, q = make_pair()
    msg = prepare_sync(p, "Q")
    with pytest.raises(ValueError):
        handle_sync(p, msg)
    stray = SyncMessage("R", "Q", (), {})
    with pytest.raises(UnknownNeighbor):
        handle_sync(q, stray)


@pytest.mark.parametrize(
    "bad,error",
    [
        # Each case: the entry P cannot take, and the crafted ack map.
        ((TaggedOp(Op.insert(1), "Q", 3), {"Q": 3}), InvalidInsert),
        ((TaggedOp(Op.delete(9), "Q", 3), {"Q": 3}), InvalidDelete),
        # Applied, 1.5 would reach P's neighbours as the token '1.5'.
        ((TaggedOp(Op.insert(1.5), "Q", 3), {"Q": 3}), ValueError),
        # Merged, the origin would make P's next message a line no peer parses.
        ((TaggedOp(Op.insert(6), "a b", 1), {"Q": 3, "a b": 1}), ValueError),
        # An ack map covering all P holds: P takes no rewrite baseline.
        ((TaggedOp(Op.insert(1), "Q", 3), {"P": 1, "Q": 3}), InvalidInsert),
        ((TaggedOp(Op.delete(9), "Q", 3), {"P": 1, "Q": 3}), InvalidDelete),
        ((TaggedOp(Op.insert(1.5), "Q", 3), {"P": 1, "Q": 3}), ValueError),
    ],
)
def test_failing_handle_sync_leaves_the_peer_unchanged(bad, error):
    entry, ack = bad
    p, q = make_pair()
    local_update(p, "insert", 4)
    local_update(q, "insert", 5)
    exchange(p, q)
    prepare_sync(p, "Q")  # offered, not yet acknowledged
    before = copy.deepcopy((p.data, p.log, p.applied_seqs, p.neighbors))
    # Crafted: Q's first op is fine on its own, its second cannot be taken.
    crafted = SyncMessage("Q", "P", (TaggedOp(Op.insert(3), "Q", 2), entry), ack)
    with pytest.raises(error):
        handle_sync(p, crafted)
    assert (p.data, p.log, p.applied_seqs, p.neighbors) == before


@pytest.mark.parametrize(
    "msg",
    [
        SyncMessage("Q", "P", (TaggedOp(Op.insert(3), "Q", 2),), {"Q": 1}),
        parse_sync_message("MSG from=Q to=P ack= ops=[+3@Q:1]"),
    ],
    ids=["built", "parsed"],
)
def test_payload_outrunning_its_own_ack_map_is_refused(msg):
    # Merging the ack map is the only way coverage moves, so a payload the
    # map does not cover would be applied and never counted as handled.
    p, q = make_pair()
    local_update(p, "insert", 4)
    local_update(q, "insert", 5)
    exchange(p, q)
    prepare_sync(p, "Q")  # offered, not yet acknowledged
    before = copy.deepcopy((p.data, p.log, p.applied_seqs, p.neighbors))
    tag = msg.payload[0]
    with pytest.raises(ValueError, match=f"{tag.origin}:{tag.origin_seq} "):
        handle_sync(p, msg)
    assert (p.data, p.log, p.applied_seqs, p.neighbors) == before


@pytest.mark.parametrize(
    "line,tag",
    [
        # Two inserts of one element in a row: they cancel, and P:2 is lost.
        ("MSG from=P to=Q ack=P:2 ops=[+1@P:1,+1@P:2]", "P:2"),
        # One tag twice: both entries would be logged under it.
        ("MSG from=P to=Q ack=P:1 ops=[+1@P:1,+2@P:1]", "P:1"),
        # P's entries out of order: they would be logged so.
        ("MSG from=P to=Q ack=P:2 ops=[+1@P:2,+2@P:1]", "P:1"),
        # Seqs start at 1, so a 0 cannot rise above its origin's start.
        ("MSG from=P to=Q ack=P:1 ops=[+1@P:0]", "P:0"),
        # A log holds effectful ops only; a Nop would cover P:1 with nothing.
        ("MSG from=P to=Q ack=P:1 ops=[!@P:1]", "P:1"),
    ],
    ids=["kind-repeats", "tag-repeats", "seqs-fall", "seq-zero", "nop"],
)
def test_payload_no_log_could_produce_is_refused(line, tag):
    # A payload is a slice of its sender's log: each origin's seqs rise, every
    # op is effectful, and each element's kinds alternate.
    q = init_peer("Q", frozenset(), ("P",))
    before = copy.deepcopy((q.data, q.log, q.applied_seqs, q.neighbors))
    with pytest.raises(ValueError, match=f"{tag} "):
        handle_sync(q, parse_sync_message(line))
    assert (q.data, q.log, q.applied_seqs, q.neighbors) == before


def _refuses_unchanged(peer, msg, tag):
    before = copy.deepcopy(peer)
    with pytest.raises(ValueError, match=f"claims {tag},"):
        handle_sync(peer, msg)
    assert peer == before


def test_ack_map_claiming_an_op_never_issued_here_is_refused():
    # Only Q issues Q's tags, so no honest ack map names a Q tag above Q's
    # counter.  Merged, this one would mark Q:2 as held by P, and Q's next op
    # would take Q:3.  The check compares with the ack map Q last sent P, so
    # it also refuses Q:1, issued but never sent (the next test).
    p, q = make_pair(frozenset())
    local_update(q, "insert", 1)
    _refuses_unchanged(q, SyncMessage("P", "Q", (), {"Q": 2}), "Q:2")


def test_ack_map_claiming_an_op_never_sent_is_refused():
    # Q issued Q:1 but never told P of it.  Merged, this ack would mark Q:1
    # as held by P, so Q would never send it: P stays at {} and Q at {1}.
    p, q = make_pair(frozenset())
    local_update(q, "insert", 1)
    _refuses_unchanged(q, SyncMessage("P", "Q", (), {"Q": 1}), "Q:1")


def test_ack_map_claiming_an_op_sent_on_another_link_is_refused():
    # Each link keeps its own record: H told P of H:1, and R nothing.
    h = init_peer("H", frozenset(), ("P", "R"))
    local_update(h, "insert", 1)
    prepare_sync(h, "P")
    _refuses_unchanged(h, SyncMessage("R", "H", (), {"H": 1}), "H:1")
    assert handle_sync(h, SyncMessage("P", "H", (), {"H": 1})) == ()
    assert h.neighbors["P"].received_watermark == {"H": 1}


def test_ack_map_reaching_past_a_restored_snapshot_is_refused():
    # Q is restored from before Q:2, which P already holds.  P never sends
    # Q's own ops back, so Q cannot recover 2; merging P's ack would hide it.
    p, q = make_pair(frozenset())
    local_update(q, "insert", 1)
    snapshot = copy.deepcopy(q)
    local_update(q, "insert", 2)
    exchange(q, p)
    _refuses_unchanged(snapshot, prepare_sync(p, "Q"), "Q:2")


def test_a_prepared_message_shares_no_dict_with_its_sender():
    # Whoever holds a message may reuse or edit its dicts.  Had A's record of
    # what it told B moved with them, A would refuse B's honest ack of A:1.
    a = init_peer("A", frozenset(), ("B",))
    b = init_peer("B", frozenset(), ("A",))
    local_update(a, "insert", 1)
    msg = prepare_sync(a, "B")
    line = encode_sync_message(msg)
    msg.ack.clear()
    handle_sync(b, parse_sync_message(line))
    handle_sync(a, prepare_sync(b, "A"))
    assert a.neighbors["B"].received_watermark == {"A": 1}
    assert a.data == b.data == {1}


@pytest.mark.parametrize(
    "record", [Op.insert(5), Op.delete("a"), TaggedOp(Op.insert(5), "P", 3)]
)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record)
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)


def test_echo_freedom():
    p, q = make_pair()
    local_update(p, "insert", 3)
    exchange(p, q)
    back = prepare_sync(q, "P")
    assert all(t.origin != "P" for t in back.payload)
    assert handle_sync(p, back) == ()
    assert p.data == {1, 2, 3}


def test_relay_keeps_origin_tags():
    p = init_peer("P", frozenset({1}), ("Q",))
    q = init_peer("Q", frozenset({1}), ("P", "R"))
    r = init_peer("R", frozenset({1}), ("Q",))
    local_update(p, "insert", 5)
    exchange(p, q)
    entry = q.log[-1]
    assert (entry.origin, entry.origin_seq, entry.op) == ("P", 1, Op.insert(5))
    exchange(q, r)
    assert r.data == {1, 5}
    assert r.log[-1].origin == "P"
    # R's acknowledgment of P's op travels back through Q.
    exchange(r, q)
    assert q.neighbors["R"].received_watermark.get("P") == 1


def _multipass_handle_sync(peer, msg):
    # handle_sync before its one-pass form: a second pass collects the pending
    # entries, normalize always runs, the log is always scanned for the
    # rewrite baseline, and the twin marks are always swept.
    if msg.receiver != peer.id:
        raise ValueError(f"message for {msg.receiver} handled by {peer.id}")
    state = peer.neighbors.get(msg.sender)
    if state is None:
        raise UnknownNeighbor(f"{peer.id}: unknown neighbor {msg.sender}")
    claimed = msg.ack.get(peer.id, 0)
    if claimed > state.sent_ack.get(peer.id, 0):
        raise ValueError(f"ack map claims {peer.id}:{claimed}, not yet sent")
    for origin in msg.ack:
        if origin not in peer.applied_seqs and not _PEER_ID_RE.fullmatch(origin):
            raise ValueError(f"bad peer id in ack map: {origin!r}")
    last_seq = {}
    last_kind = {}
    for t in msg.payload:
        origin, seq, op = t.origin, t.origin_seq, t.op
        if seq > msg.ack.get(origin, 0):
            raise ValueError(f"entry {origin}:{seq} outruns the ack map")
        prev = last_seq.get(origin, 0)
        if seq <= prev:
            raise ValueError(
                f"entry {origin}:{seq} does not rise above {origin}:{prev}"
            )
        if op.kind is OpKind.NOP:
            raise ValueError(f"entry {origin}:{seq} carries no operation")
        if op.kind is last_kind.get(op.element):
            raise ValueError(
                f"entry {origin}:{seq} repeats the previous op "
                f"on {render_element(op.element)}"
            )
        last_seq[origin] = seq
        last_kind[op.element] = op.kind

    pending = [
        t for t in msg.payload if t.origin_seq > peer.applied_seqs.get(t.origin, 0)
    ]
    for t in pending:
        if not is_wire_element(t.op.element):
            shown = describe_element(t.op.element)
            raise ValueError(f"element cannot cross the wire: {shown}")

    applied = []
    if pending:
        tails = _element_tails(peer.log, msg.ack, state.known_entries)
        survivors = {}
        for element, tail in tails.items():
            if len(tail) % 2 == 1:
                survivors[element] = peer.log[tail[-1]]
        unseen_by_sender = tuple(t.op for t in survivors.values())
        pending_ops = normalize(tuple(t.op for t in pending))
        rewritten = transform_remote(unseen_by_sender, pending_ops)
        for op in rewritten:
            if not is_valid(peer.data, op):
                raise ineffective(op)
        for tagged, norm_op, op in zip(pending, pending_ops, rewritten):
            if not op.is_nop:
                peer.data ^= {op.element}
                peer.log.append(tagged)
                applied.append(op)
            elif not norm_op.is_nop:
                twin = survivors[norm_op.element]
                state.known_entries.add((twin.origin, twin.origin_seq))

    for origin, seq in msg.ack.items():
        if seq > peer.applied_seqs.get(origin, 0):
            peer.applied_seqs[origin] = seq
        if seq > state.received_watermark.get(origin, 0):
            state.received_watermark[origin] = seq
    stale = {
        k for k in state.known_entries if k[1] <= state.received_watermark.get(k[0], 0)
    }
    state.known_entries -= stale
    return tuple(applied)


_ORIGINS = ["P", "Q", "R", "a b"]
_SIGNS = {"+": Op.insert, "-": Op.delete, "!": lambda x: Op(OpKind.NOP)}


def _toggle(peer, x):
    local_update(peer, "delete" if x in peer.data else "insert", x)


@st.composite
def _sync_cases(draw):
    """A receiver and a message for it, from a line of two or three peers.

    Random updates, syncs, lost messages and prunes come first.  Then the
    sender updates, may lose a message to the receiver and update again (so
    a tail repeats verbatim, with repeated elements), the receiver updates
    concurrently and may offer its coverage, and the receiver takes twin
    marks.  The message is what the sender prepares, or that message with
    entries of any kind added, one fresh entry from the sender appended,
    another ack map, or a stray address.
    """
    names = "PQR"[: draw(st.sampled_from([2, 3]))]
    links = [(a, b) for a, b in zip(names, names[1:])]
    links += [(b, a) for a, b in links]
    initial = frozenset(draw(st.sets(st.integers(0, 3))))
    peers = {
        x: init_peer(x, initial, tuple(dst for src, dst in links if src == x))
        for x in names
    }
    elements = st.lists(st.integers(0, 3), max_size=3)
    steps = st.one_of(
        st.tuples(st.just("op"), st.sampled_from(names), st.integers(0, 3)),
        st.tuples(st.sampled_from(["sync", "lose"]), st.sampled_from(links), st.none()),
        st.tuples(st.just("prune"), st.sampled_from(names), st.none()),
    )
    for kind, at, x in draw(st.lists(steps, max_size=12)):
        if kind == "op":
            _toggle(peers[at], x)
        elif kind == "prune":
            prune_log(peers[at])
        else:
            msg = prepare_sync(peers[at[0]], at[1])
            if kind == "sync":
                handle_sync(peers[at[1]], msg)
    sender, receiver = draw(st.sampled_from(links))
    peer = peers[receiver]
    for x in draw(elements):
        _toggle(peers[sender], x)
    if draw(st.booleans()):
        prepare_sync(peers[sender], receiver)  # lost
    for x in draw(elements):
        _toggle(peers[sender], x)
    for x in draw(elements):
        _toggle(peer, x)
    if draw(st.booleans()):
        prepare_sync(peer, sender)  # offered, so an ack map may cover it all
    tags = sorted((t.origin, t.origin_seq) for t in peer.log)
    if tags:
        marks = draw(st.lists(st.sampled_from(tags), max_size=3))
        peer.neighbors[sender].known_entries.update(marks)

    base = prepare_sync(peers[sender], receiver)
    payload, ack = list(base.payload), dict(base.ack)
    if draw(st.booleans()):  # covers all the receiver holds, if it offered
        offered = peer.neighbors[sender].sent_ack
        for origin, seq in peer.applied_seqs.items():
            if origin == receiver:
                seq = offered.get(origin, 0)
            ack[origin] = max(ack.get(origin, 0), seq)
    change = draw(
        st.sampled_from(["none", "entries", "entries", "append", "ack", "address"])
    )
    if change == "entries":
        # Seqs land around the ack map, so most entries are news here.
        extra = st.tuples(
            st.sampled_from([sender, *_ORIGINS]),
            st.sampled_from([0, 1, 2, 3, 1.5]),
            st.sampled_from("+-!"),
            st.integers(-1, 2),
        )
        for origin, element, sign, step in draw(st.lists(extra, min_size=1, max_size=3)):
            at = draw(st.integers(0, len(payload)))
            seq = ack.get(origin, 0) + step
            payload.insert(at, TaggedOp(_SIGNS[sign](element), origin, seq))
            ack[origin] = max(ack.get(origin, 0), seq)
    elif change == "append":
        # Well formed but for its op, which may repeat, miss or not cross.
        seq = ack.get(sender, 0) + 1
        op = _SIGNS[draw(st.sampled_from("+-"))](draw(st.sampled_from([0, 1, 1.5])))
        payload.append(TaggedOp(op, sender, seq))
        ack[sender] = seq
    elif change == "ack":
        ack = draw(st.dictionaries(st.sampled_from(_ORIGINS), st.integers(0, 8)))
    elif change == "address":
        if draw(st.booleans()):
            sender = "X"
        else:
            receiver = "X"
    return peer, SyncMessage(sender, receiver, tuple(payload), ack)


def _outcome(handle, peer, msg):
    try:
        return ("returned", handle(peer, msg))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


@settings(deadline=None, max_examples=300)
@given(_sync_cases())
def test_handle_sync_matches_the_multipass_handle_sync(case):
    peer, msg = case
    ours, theirs = copy.deepcopy(peer), copy.deepcopy(peer)
    outcome = _outcome(handle_sync, ours, msg)
    assert outcome == _outcome(_multipass_handle_sync, theirs, msg)
    assert ours == theirs
    if outcome[0] == "raised":
        assert ours == peer


def _line_events(call):
    """Python line events while `call()` runs, in every frame it enters.

    The collector is held off while counting: a collection inside the call
    would run the finalizers of earlier tests' garbage and count their lines.
    """
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    saved = sys.gettrace()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(saved)
        if collecting:
            gc.enable()
    return count


def _covered_sync_line_events(log_len):
    # P's log toggles ten elements; Q's ack map covers all of it, and Q
    # brings eight inserts P does not hold.
    p = init_peer("P", frozenset(), ("Q",))
    for i in range(log_len):
        x = i % 10
        local_update(p, "delete" if x in p.data else "insert", x)
    prepare_sync(p, "Q")  # offered, so Q may acknowledge all of it
    payload = tuple(TaggedOp(Op.insert(100 + s), "Q", s) for s in range(1, 9))
    msg = SyncMessage("Q", "P", payload, {"P": log_len, "Q": 8})
    events = _line_events(lambda: handle_sync(p, msg))
    assert len(p.log) == log_len + 8
    return events


def test_a_covered_sync_costs_the_same_at_any_log_length():
    # A count of interpreted lines does not depend on the host's speed: a
    # sync whose ack map covers the receiver costs what it carries, whatever
    # history the receiver's log holds.
    assert _covered_sync_line_events(500) == _covered_sync_line_events(5000)


# ---------------------------------------------------------------------------
# prune_log


def test_prune_requires_full_acknowledgment():
    p, q = make_pair()
    local_update(p, "insert", 3)
    assert prune_log(p) == 0  # Q acked nothing yet
    exchange(p, q)
    assert prune_log(p) == 0  # still nothing: acks come back, not forward
    exchange(q, p)
    assert prune_log(p) == 1
    assert p.log == []


def test_prune_after_full_sync_empties_both_logs():
    p, q = make_pair()
    local_update(p, "insert", 3)
    local_update(p, "delete", 3)
    local_update(q, "delete", 2)
    local_update(q, "insert", 3)
    exchange(p, q)
    exchange(q, p)
    exchange(p, q)
    assert p.data == q.data == {1, 3}
    assert prune_log(p) == 4  # own pair plus the two relayed entries
    assert prune_log(q) == 2
    assert p.log == [] and q.log == []
    # Pruned peers still sync cleanly afterwards.
    local_update(p, "insert", 9)
    exchange(p, q)
    assert q.data == {1, 3, 9}


def test_hub_prunes_only_what_every_neighbor_acknowledged():
    p = init_peer("P", frozenset(), ("Q",))
    q = init_peer("Q", frozenset(), ("P", "R"))
    r = init_peer("R", frozenset(), ("Q",))
    local_update(q, "insert", 1)
    local_update(p, "insert", 2)
    exchange(q, p)
    exchange(p, q)  # P's op reaches Q, and P acknowledges Q's op
    assert [(e.origin, e.origin_seq) for e in q.log] == [("Q", 1), ("P", 1)]
    assert prune_log(q) == 0  # R, the slower neighbor, has acknowledged nothing
    exchange(q, r)
    assert prune_log(q) == 0  # R holds both entries, but its ack has not come
    local_update(q, "insert", 3)
    exchange(r, q)
    assert prune_log(q) == 2  # R's ack covers the prefix, not Q's newest entry
    assert [(e.origin, e.origin_seq) for e in q.log] == [("Q", 2)]
    exchange(q, r)
    exchange(r, q)
    assert prune_log(q) == 0  # P has not acknowledged Q's newest entry yet
    exchange(q, p)
    exchange(p, q)
    assert prune_log(q) == 1
    assert p.data == q.data == r.data == {1, 2, 3}


def test_prune_isolated_peer_drops_everything():
    p = init_peer("P", frozenset(), ())
    local_update(p, "insert", 1)
    local_update(p, "insert", 2)
    assert prune_log(p) == 2
    assert p.log == []
    assert prune_log(p) == 0


# ---------------------------------------------------------------------------
# split_message


def test_split_structural_properties():
    p, _ = make_pair(frozenset())
    local_update(p, "insert", 1)
    prepare_sync(p, "Q")  # offered, then lost
    local_update(p, "insert", 2)
    local_update(p, "delete", 1)
    local_update(p, "insert", 3)
    msg = prepare_sync(p, "Q")
    assert [t.op for t in msg.payload] == [
        Op.insert(1),
        Op.insert(2),
        Op.delete(1),
        Op.insert(3),
    ]
    parts = split_message(msg, 3)
    assert len(parts) >= 2
    joined = tuple(t for seg in parts for t in seg.payload)
    assert joined == msg.payload
    # Ops on one element never straddle segments.
    for element in {t.op.element for t in msg.payload}:
        hits = [i for i, seg in enumerate(parts)
                if any(t.op.element == element for t in seg.payload)]
        assert len(set(hits)) == 1
    # A segment's ack never covers an op that rides a later segment.
    for i, seg in enumerate(parts):
        for later in parts[i + 1:]:
            for t in later.payload:
                assert seg.ack.get(t.origin, 0) < t.origin_seq
    assert parts[-1].ack == msg.ack


def test_split_handling_matches_whole_message():
    def build():
        p = init_peer("P", frozenset(), ("Q",))
        q = init_peer("Q", frozenset(), ("P",))
        local_update(p, "insert", 1)
        local_update(p, "insert", 2)
        prepare_sync(p, "Q")  # offered, then lost
        local_update(p, "delete", 1)
        local_update(p, "insert", 3)
        return p, q

    p1, whole = build()
    msg = prepare_sync(p1, "Q")
    handle_sync(whole, msg)

    p2, pieces = build()
    msg2 = prepare_sync(p2, "Q")
    assert msg2 == msg
    for segment in split_message(msg2, 2):
        handle_sync(pieces, segment)

    assert whole.data == pieces.data
    assert whole.applied_seqs == pieces.applied_seqs
    assert whole.log == pieces.log


def test_split_degenerate_cases():
    msg = SyncMessage("P", "Q", (TaggedOp(Op.insert(1), "P", 1),), {"P": 1})
    assert split_message(msg, 3) == [msg]
    assert split_message(msg, 1) == [msg]
    # Entangled payload: the first element spans everything, so no cut exists.
    tangled = SyncMessage(
        "P",
        "Q",
        (
            TaggedOp(Op.insert(1), "P", 1),
            TaggedOp(Op.insert(2), "P", 2),
            TaggedOp(Op.delete(1), "P", 3),
        ),
        {"P": 3},
    )
    assert split_message(tangled, 2) == [tangled]


def _rescanning_split(msg, parts):
    # split_message before its one-pass form: a block list, a chunk list,
    # and every later chunk rescanned for each chunk's ack caps.
    if parts <= 1 or len(msg.payload) <= 1:
        return [msg]
    last_use = {}
    for i, t in enumerate(msg.payload):
        last_use[t.op.element] = i
    blocks = []
    start = 0
    horizon = 0
    for i, t in enumerate(msg.payload):
        horizon = max(horizon, last_use[t.op.element])
        if i == horizon:
            blocks.append(msg.payload[start : i + 1])
            start = i + 1
    parts = min(parts, len(blocks))
    if parts == 1:
        return [msg]
    size, extra = divmod(len(blocks), parts)
    chunks = []
    at = 0
    for i in range(parts):
        end = at + size + (1 if i < extra else 0)
        chunks.append(tuple(t for block in blocks[at:end] for t in block))
        at = end
    out = []
    for i, chunk in enumerate(chunks):
        first_later = {}
        for later in chunks[i + 1 :]:
            for t in later:
                if t.origin not in first_later:
                    first_later[t.origin] = t.origin_seq
        ack = {}
        for origin, seq in msg.ack.items():
            capped = min(seq, first_later.get(origin, seq + 1) - 1)
            if capped > 0:
                ack[origin] = capped
        out.append(SyncMessage(msg.sender, msg.receiver, chunk, ack))
    return out


def _tagged_payload(entries):
    """(origin, element, seq gap) triples to a payload: seqs rise per origin
    and each element's kinds alternate, as in a log."""
    seqs, present, payload = {}, set(), []
    for origin, element, gap in entries:
        seqs[origin] = seqs.get(origin, 0) + gap
        op = Op.delete(element) if element in present else Op.insert(element)
        present ^= {element}
        payload.append(TaggedOp(op, origin, seqs[origin]))
    return tuple(payload), seqs


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("PQR"), st.integers(0, 5), st.integers(1, 3)),
        max_size=14,
    ),
    st.dictionaries(st.sampled_from("PQRS"), st.integers(0, 4)),
    st.integers(1, 5),
)
def test_split_matches_the_rescanning_split(entries, ack_extra, parts):
    payload, seqs = _tagged_payload(entries)
    # The ack map covers the payload and may run ahead of it, or name
    # origins the payload does not carry.
    ack = {o: seqs.get(o, 0) + extra for o, extra in ack_extra.items()}
    ack = {o: s for o, s in {**seqs, **ack}.items() if s > 0}
    msg = SyncMessage("P", "Q", payload, ack)
    assert split_message(msg, parts) == _rescanning_split(msg, parts)


@pytest.mark.parametrize(
    "entries,ack,parts",
    [
        ([], {"P": 3}, 3),
        ([("P", 1, 1)], {"P": 1}, 2),
        # One element spans the payload: no cut exists.
        ([("P", 1, 1), ("P", 2, 1), ("P", 1, 1)], {"P": 3}, 4),
        # Three groups into two segments: the first takes the extra group.
        ([("P", 1, 1), ("Q", 2, 1), ("P", 3, 1)], {"P": 2, "Q": 1}, 2),
        # More parts than groups, interleaved origins, an idle origin R.
        ([("P", 1, 1), ("Q", 2, 2), ("Q", 1, 1), ("P", 4, 1), ("Q", 5, 3)],
         {"P": 6, "Q": 9, "R": 2}, 5),
    ],
    ids=["empty", "single", "uncuttable", "balanced", "more-parts"],
)
def test_split_matches_the_rescanning_split_on_fixed_cases(entries, ack, parts):
    msg = SyncMessage("P", "Q", _tagged_payload(entries)[0], ack)
    assert split_message(msg, parts) == _rescanning_split(msg, parts)


PQ, QP = ("P", "Q"), ("Q", "P")


def empty_pair_world():
    return World(parse_scenario("PEER P {}\nPEER Q {}\nLINK P Q\n"))


def five_full_rounds(world):
    for _ in range(5):
        for link in (PQ, QP):
            world.send(*link)
            world.deliver(link)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 5: a second message sent before the first is "
    "acknowledged (pipelining) diverges",
)
def test_pipelined_messages_converge():
    world = empty_pair_world()
    p, q = world.peers["P"], world.peers["Q"]
    local_update(q, "insert", 1)
    world.send(*QP)
    local_update(q, "delete", 1)
    world.send(*QP)
    local_update(p, "insert", 1)
    world.send(*PQ)
    world.deliver(PQ)
    world.deliver(QP)
    world.deliver(QP)
    five_full_rounds(world)
    # Today P holds set() and Q holds {1}, for ever.
    assert p.data == q.data


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 5: segments handled out of order diverge",
)
def test_reordered_segments_converge():
    world = empty_pair_world()
    p, q = world.peers["P"], world.peers["Q"]
    for x in (1, 2, 3, 4):
        local_update(p, "insert", x)
    world.send(*PQ, 2)
    world.deliver(PQ, 1)
    world.deliver(PQ)
    five_full_rounds(world)
    # Today P holds {1,2,3,4} and Q holds {3,4}, for ever.
    assert p.data == q.data


# ---------------------------------------------------------------------------
# Wire encoding


def test_wire_round_trip():
    msg = SyncMessage(
        sender="P",
        receiver="Q",
        payload=(
            TaggedOp(Op.delete(2), "Q", 1),
            TaggedOp(Op.insert(3), "Q", 2),
        ),
        ack={"P": 2, "Q": 2},
    )
    line = encode_sync_message(msg)
    assert line == "MSG from=P to=Q ack=P:2,Q:2 ops=[-2@Q:1,+3@Q:2]"
    assert parse_sync_message(line) == msg


def test_wire_round_trip_empty_fields():
    msg = SyncMessage("P", "Q", (), {})
    line = encode_sync_message(msg)
    assert line == "MSG from=P to=Q ack= ops=[]"
    assert parse_sync_message(line) == msg


def test_wire_round_trip_structured_elements():
    from ccss.core import Triple

    msg = SyncMessage(
        "P",
        "Q",
        (
            TaggedOp(Op.insert(Triple("a", 7, 1)), "P", 1),
            TaggedOp(Op.insert("token"), "P", 2),
        ),
        {"P": 2},
    )
    assert parse_sync_message(encode_sync_message(msg)) == msg


def test_wire_rejects_malformed_lines():
    good = "MSG from=P to=Q ack= ops=[]"
    assert parse_sync_message(good).sender == "P"
    for bad in (
        "MSG from=P to=Q ack=",
        "MSG from=P to=Q ack=P ops=[]",
        "MSG from=P to=Q ack= ops=[+3]",
        "MSG from=P to=Q ack= ops=+3@P:1",
        # A triple nested deeper than the interpreter's stack allows.
        "MSG from=P to=Q ack= ops=[+" + "(" * 1200 + "a" + ",k,1)" * 1200 + "@P:1]",
        "MSG from=P to=Q ops= ack=[]",
        "PKT from=P to=Q ack= ops=[]",
    ):
        with pytest.raises(ValueError):
            parse_sync_message(bad)
    # Only the encoder's forms: one ack item per origin, and sequence
    # numbers in ASCII digits, each refused with a message naming the item.
    for bad, message in (
        ("MSG from=P to=Q ack=P:5,P:1 ops=[]", "ack map names P twice"),
        ("MSG from=P to=Q ack=P:\u0661 ops=[]", "malformed ack item"),
        ("MSG from=P to=Q ack=P:\u00b2 ops=[]", "malformed ack item"),
        ("MSG from=P to=Q ack=P:1 ops=[+3@P:\u0661]", "malformed payload item"),
        ("MSG from=P to=Q ack=P:1 ops=[+3@P:\u00b2]", "malformed payload item"),
        # Every id is a peer id, as init_peer requires: a relay re-encodes
        # what it logged, and a stray bracket in a tag would shift the
        # splitting of every item after it on the next hop.
        ("MSG from=P to=Q ack=b):1 ops=[+5@b):1]", "malformed ack item"),
        ("MSG from=P to=Q ack=b:1 ops=[+5@b):1]", "malformed payload item"),
        ("MSG from=Q to=R ack=Q:1,b):1 ops=[+5@b):1,+7@Q:1]", "malformed"),
        ("MSG from=P to=Q ack=P:x:1 ops=[]", "malformed ack item"),
        ("MSG from=P) to=Q ack= ops=[]", "bad peer id in from="),
        ("MSG from=P to= ack= ops=[]", "bad peer id in to="),
    ):
        with pytest.raises(ValueError, match=message):
            parse_sync_message(bad)


@settings(deadline=None)
@given(st.text(alphabet="Pb_.-:@()[]{},+ ", min_size=1, max_size=6))
def test_relayed_entries_re_encode_to_lines_that_parse(origin):
    """What a relay logs from a parsed line, it can send on intact."""
    line = f"MSG from=P to=Q ack={origin}:1 ops=[+5@{origin}:1]"
    try:
        msg = parse_sync_message(line)
    except ValueError:
        return
    q = init_peer("Q", frozenset(), ("P", "R"))
    handle_sync(q, msg)
    local_update(q, "insert", 7)
    relayed = prepare_sync(q, "R")
    assert len(relayed.payload) == 2
    assert parse_sync_message(encode_sync_message(relayed)) == relayed
