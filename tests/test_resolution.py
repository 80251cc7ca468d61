"""Last-write-wins resolution over replicated triple sets."""

from ccss.core import Op, Triple
from ccss.peer import handle_sync, init_peer, prepare_sync
from ccss.resolution import lww_insert, lww_resolve


def linked_pair():
    p = init_peer("P", frozenset(), ("Q",))
    q = init_peer("Q", frozenset(), ("P",))
    return p, q


def exchange(src, dst):
    return handle_sync(dst, prepare_sync(src, dst.id))


def test_lww_insert_and_duplicate():
    p = init_peer("P", frozenset(), ())
    assert lww_insert(p, "a", 7, 1) == Op.insert(Triple("a", 7, 1))
    assert lww_insert(p, "a", 7, 1) is None
    assert p.data == {Triple("a", 7, 1)}


def test_resolve_keeps_newest_stamp():
    p = init_peer("P", frozenset(), ())
    lww_insert(p, "a", 7, 1)
    lww_insert(p, "b", 7, 2)
    issued = lww_resolve(p)
    assert issued == (Op.delete(Triple("a", 7, 1)),)
    assert p.data == {Triple("b", 7, 2)}


def test_resolve_single_candidate_and_idempotence():
    p = init_peer("P", frozenset(), ())
    lww_insert(p, "a", 7, 1)
    lww_insert(p, "z", 8, 5)
    assert lww_resolve(p) == ()
    lww_insert(p, "b", 7, 2)
    assert len(lww_resolve(p)) == 1
    assert lww_resolve(p) == ()


def test_resolve_ignores_plain_elements():
    p = init_peer("P", frozenset({1, 2}), ())
    lww_insert(p, "a", 7, 1)
    lww_insert(p, "b", 7, 2)
    lww_resolve(p)
    assert p.data == {1, 2, Triple("b", 7, 2)}


def test_resolve_tie_breaks_on_value_everywhere():
    # Equal stamps: the survivor comes from the value ordering, which is the
    # same on every replica.
    peers = [init_peer(name, frozenset(), ()) for name in ("P", "Q")]
    for peer in peers:
        lww_insert(peer, "a", 7, 3)
        lww_insert(peer, "b", 7, 3)
        lww_resolve(peer)
    assert peers[0].data == peers[1].data == {Triple("b", 7, 3)}


def test_resolution_deletes_propagate_through_sync():
    p, q = linked_pair()
    lww_insert(p, "a", 7, 1)
    lww_insert(q, "b", 7, 2)
    exchange(p, q)
    exchange(q, p)
    assert p.data == q.data == {Triple("a", 7, 1), Triple("b", 7, 2)}

    issued = lww_resolve(p)
    assert issued == (Op.delete(Triple("a", 7, 1)),)
    exchange(p, q)
    # Q receives the loser's deletion as an ordinary op; no local resolve ran.
    assert q.data == {Triple("b", 7, 2)}
    assert lww_resolve(q) == ()


def test_concurrent_resolution_merges_as_duplicates():
    p, q = linked_pair()
    lww_insert(p, "a", 7, 1)
    lww_insert(q, "b", 7, 2)
    exchange(p, q)
    exchange(q, p)
    # Both replicas resolve independently, issuing the same delete.
    assert lww_resolve(p) == lww_resolve(q) == (Op.delete(Triple("a", 7, 1)),)
    exchange(p, q)
    exchange(q, p)
    exchange(p, q)
    assert p.data == q.data == {Triple("b", 7, 2)}
