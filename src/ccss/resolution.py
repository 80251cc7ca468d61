"""Last-write-wins resolution on top of plain replicated sets.

Values are stored as (value, key, stamp) triples.  Concurrent writes to the
same key simply coexist as set members until a resolution pass deletes every
triple but the newest one.  Resolution runs locally and emits ordinary
deletes, so its outcome rides the normal sync path; because the rule is
deterministic, every replica deletes the same losers and the deletions merge
as duplicates rather than conflicts.
"""

from __future__ import annotations

from typing import Hashable

from .core import Op, OpSeq, Triple, render_element
from .peer import PeerState, local_update


def lww_insert(peer: PeerState, v: Hashable, k: Hashable, t: int) -> Op | None:
    """Insert the triple (v, k, t); None when it is already present.

    The caller maintains the clock: t must exceed any stamp this peer has
    issued before.
    """
    return local_update(peer, "insert", Triple(v, k, t))


def _newness(triple: Triple) -> tuple:
    # Stamp first; ties break on the value's rendering, which no peer
    # identity can influence.
    return (triple.stamp, render_element(triple.value))


def lww_resolve(peer: PeerState) -> OpSeq:
    """Delete every triple that a newer write to the same key supersedes.

    Keeps, per key, the triple with the highest (stamp, value rendering).
    Returns the delete operations issued; running again immediately issues
    none.  Non-triple elements are left alone.
    """
    by_key: dict[Hashable, list[Triple]] = {}
    for member in peer.data:
        if isinstance(member, Triple):
            by_key.setdefault(member.key, []).append(member)

    issued: list[Op] = []
    for triples in by_key.values():
        triples.sort(key=_newness)
        for loser in triples[:-1]:
            # A loser is a member, so its delete is always effectful.
            issued.append(local_update(peer, "delete", loser))
    return tuple(issued)
