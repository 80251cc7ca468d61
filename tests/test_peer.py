"""Peer state machine: logs, sync exchange, pruning, segmentation, wire."""

import copy
import dataclasses
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ccss.core import (
    InvalidDelete,
    InvalidInsert,
    Op,
    Triple,
    parse_element_set,
    render_element_set,
)
from ccss.peer import (
    DuplicateNeighbor,
    SyncMessage,
    TaggedOp,
    UnknownNeighbor,
    encode_sync_message,
    handle_sync,
    init_peer,
    local_update,
    parse_sync_message,
    prepare_sync,
    prune_log,
    split_message,
)
from ccss.sim import parse_scenario, reference_run, run_scenario


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
    # Q's reply carries only its ack map; it settles what P offered and
    # changes nothing else at P.
    assert p.neighbors["Q"].offered_entries == {("P", 1)}
    reply = prepare_sync(q, "P")
    assert reply.payload == () and reply.ack == {"P": 1}
    before = (set(p.data), list(p.log))
    assert handle_sync(p, reply) == ()
    assert p.neighbors["Q"].offered_entries == set()
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
    [(Op.insert(1), InvalidInsert), (Op.delete(9), InvalidDelete)],
)
def test_failing_handle_sync_leaves_the_peer_unchanged(bad, error):
    p, q = make_pair()
    local_update(p, "insert", 4)
    local_update(q, "insert", 5)
    exchange(p, q)
    prepare_sync(p, "Q")  # offered, not yet acknowledged
    before = copy.deepcopy((p.data, p.log, p.applied_seqs, p.neighbors))
    # Crafted: Q's first op is fine on its own, its second is not effectful.
    crafted = SyncMessage(
        "Q", "P", (TaggedOp(Op.insert(3), "Q", 2), TaggedOp(bad, "Q", 3)), {"Q": 3}
    )
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
    # would take Q:3.  (A forged ack of Q:1, issued but never sent, is within
    # the counter, so this check cannot see it.)
    p, q = make_pair(frozenset())
    local_update(q, "insert", 1)
    _refuses_unchanged(q, SyncMessage("P", "Q", (), {"Q": 2}), "Q:2")


def test_ack_map_reaching_past_a_restored_snapshot_is_refused():
    # Q is restored from before Q:2, which P already holds.  P never sends
    # Q's own ops back, so Q cannot recover 2; merging P's ack would hide it.
    p, q = make_pair(frozenset())
    local_update(q, "insert", 1)
    snapshot = copy.deepcopy(q)
    local_update(q, "insert", 2)
    exchange(q, p)
    _refuses_unchanged(snapshot, prepare_sync(p, "Q"), "Q:2")


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
