"""Independent oracle and exhaustive small-instance confluence checking.

The oracle computes a merge outcome purely with set arithmetic, without the
transform machinery, so agreement between the two is meaningful evidence.
The checker enumerates every valid operation sequence up to a length bound
and verifies that all reconciliation routes agree with each other and with
the oracle.  Failures are collected as data, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import core
from .core import (
    Element,
    ElementSet,
    Op,
    OpSeq,
    _DELETE,
    _INSERT,
    apply_seq,
    normalize,
    render_element_set,
    render_op_seq,
)


@dataclass(frozen=True)
class Universe:
    """A finite element domain plus the base set both histories grow from."""

    elements: tuple
    base: frozenset

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("universe elements must be distinct")
        if not self.base <= frozenset(self.elements):
            raise ValueError("base must be a subset of the universe")


def oracle_merge(
    members: Iterable[Element], local_ops: Sequence[Op], remote_ops: Sequence[Op]
) -> ElementSet:
    """Merge outcome by set arithmetic alone: drop all deletes, add all inserts.

    Requires both sequences to be normalized and valid against `members`.
    An element inserted on one side and deleted on the other is contradictory
    for such sequences and raises DivergenceError.
    """
    inserts = set()
    deletes = set()
    for ops in (local_ops, remote_ops):
        for op in ops:
            kind = op.kind
            if kind is _INSERT:
                inserts.add(op.element)
            elif kind is _DELETE:
                deletes.add(op.element)
    clash = inserts & deletes
    if clash:
        raise core.disagreement(min(clash, key=core.element_sort_key), _INSERT, _DELETE)
    return (frozenset(members) - deletes) | inserts


def enumerate_valid_seqs(universe: Universe, max_len: int) -> list[OpSeq]:
    """All valid effectful sequences up to max_len, in deterministic order.

    Ordered by length, then lexicographically by (kind, element position):
    at each step inserts come before deletes and elements follow their
    universe order.
    """
    def step_ops(members: frozenset) -> list[Op]:
        inserts = [Op.insert(x) for x in universe.elements if x not in members]
        deletes = [Op.delete(x) for x in universe.elements if x in members]
        return inserts + deletes

    out: list[OpSeq] = [()]
    frontier: list[tuple[OpSeq, frozenset]] = [((), universe.base)]
    for _ in range(max_len):
        nxt: list[tuple[OpSeq, frozenset]] = []
        for seq, members in frontier:
            for op in step_ops(members):
                nxt.append((seq + (op,), core.apply_op(members, op)))
        out.extend(seq for seq, _ in nxt)
        frontier = nxt
    return out


@dataclass(frozen=True)
class ConfluenceFailure:
    base: frozenset
    local_ops: OpSeq
    remote_ops: OpSeq
    detail: str

    def __str__(self) -> str:
        return (
            f"base={render_element_set(self.base)} "
            f"ps={render_op_seq(self.local_ops)} "
            f"qs={render_op_seq(self.remote_ops)}: {self.detail}"
        )


# A merge route's outcome: the merged set, or the error the route raised.
_Route = ElementSet | core.CcssError


@dataclass
class ConfluenceReport:
    checked: int = 0
    failures: list[ConfluenceFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_confluence(universe: Universe, max_len: int) -> ConfluenceReport:
    """Exhaustively verify that both merge routes agree with the oracle.

    For every ordered pair of valid sequences from the universe's base, the
    local-then-transformed-remote route, its mirror image, and the
    transformed-local route must all equal the oracle merge.

    The checks read a history only through its normal form and the state it
    reaches, so histories that share both form one class: each ordered pair
    of classes is judged once, and its verdict is reported for every pair of
    their members.  The route from `ps` with `qs` transformed after it is
    the mirror route of the pair (qs, ps), so each is computed once, for an
    unordered pair of classes, and judged in both ordered pairs.  A route
    that raises keeps its error, which is reported where the route is read.
    """
    seqs = enumerate_valid_seqs(universe, max_len)
    base = universe.base
    members: dict[tuple[OpSeq, ElementSet], list[int]] = {}
    for i, seq in enumerate(seqs):
        members.setdefault((normalize(seq), apply_seq(base, seq)), []).append(i)
    classes = list(members)
    groups = list(members.values())

    def route(p: int, q: int) -> _Route:
        nps, after_ps = classes[p]
        try:
            return apply_seq(after_ps, core.transform_remote(nps, classes[q][0]))
        except core.CcssError as exc:
            return exc

    found: list[tuple[int, int, ConfluenceFailure]] = []

    def judge(p: int, q: int, at_p: _Route, at_q: _Route) -> None:
        nps, nqs = classes[p][0], classes[q][0]
        try:
            for merged in (at_p, at_q):
                if isinstance(merged, core.CcssError):
                    raise merged
            rewritten_local = apply_seq(base, core.transform_local(nps, nqs) + nqs)
            expected = oracle_merge(base, nps, nqs)
        except core.CcssError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        else:
            if at_p == at_q == rewritten_local == expected:
                return
            detail = (
                f"routes {render_element_set(at_p)} / "
                f"{render_element_set(at_q)} / "
                f"{render_element_set(rewritten_local)} "
                f"vs oracle {render_element_set(expected)}"
            )
        for i in groups[p]:
            for j in groups[q]:
                failure = ConfluenceFailure(base, seqs[i], seqs[j], detail)
                found.append((i, j, failure))

    for p in range(len(classes)):
        own = route(p, p)
        judge(p, p, own, own)
        for q in range(p + 1, len(classes)):
            at_p, at_q = route(p, q), route(q, p)
            judge(p, q, at_p, at_q)
            judge(q, p, at_q, at_p)
    found.sort(key=lambda item: item[:2])
    return ConfluenceReport(
        checked=len(seqs) ** 2, failures=[failure for _, _, failure in found]
    )
