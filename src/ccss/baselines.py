"""Reference set replicas used for contrast: grow-only and two-phase sets.

Both merge by unions, so they are order-free by construction, but neither
supports reinsertion after a delete: the grow-only set cannot delete at all
and the two-phase set tombstones every deleted element forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

Element = Hashable


@dataclass(frozen=True)
class GSet:
    members: frozenset = frozenset()


@dataclass(frozen=True)
class TwoPhaseSet:
    added: frozenset = frozenset()
    removed: frozenset = frozenset()


def gset_insert(s: GSet, x: Element) -> GSet:
    return GSet(s.members | {x})


def gset_merge(a: GSet, b: GSet) -> GSet:
    return GSet(a.members | b.members)


def twopset_apply(s: TwoPhaseSet, intent: str, x: Element) -> TwoPhaseSet:
    """Apply an insert or delete intent; deletes tombstone the element."""
    if intent == "insert":
        return TwoPhaseSet(s.added | {x}, s.removed)
    if intent == "delete":
        # Tombstone regardless of liveness: a delete is permanent here.
        return TwoPhaseSet(s.added, s.removed | {x})
    raise ValueError(f"unknown intent: {intent!r}")


def twopset_merge(a: TwoPhaseSet, b: TwoPhaseSet) -> TwoPhaseSet:
    return TwoPhaseSet(a.added | b.added, a.removed | b.removed)


def twopset_value(s: TwoPhaseSet) -> frozenset:
    return s.added - s.removed
