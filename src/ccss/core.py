"""Effectful set operations: validity, application, normalization, transforms.

An insert or delete is *effectful* when it changes the set it is applied to:
inserting requires the element to be absent, deleting requires it to be
present.  Histories of effectful operations can be normalized (mutually
canceling pairs on the same element replaced by the identity operation) and
two concurrent histories taken from the same base set can be reconciled by
suppressing the operations they share.  Deletions are first-class: the merge
of two replicas is not a blind union.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Iterable, Sequence

Element = Hashable
ElementSet = frozenset


class CcssError(Exception):
    """Base class for errors raised by this package."""


class InvalidInsert(CcssError):
    """Insertion of an element that is already present."""

    index: int | None = None


class InvalidDelete(CcssError):
    """Deletion of an element that is not present."""

    index: int | None = None


class DivergenceError(CcssError):
    """Two histories carry operations of opposite kind on a shared element.

    This cannot happen for valid normalized histories taken from equal base
    sets, so it signals lost or reordered state rather than a mergeable
    conflict.  It is raised loudly instead of guessing a winner.
    """


class OpKind(enum.Enum):
    INSERT = "+"
    DELETE = "-"
    NOP = "!"


# Reading a member off an Enum class takes about 0.17 us on CPython 3.11,
# longer than the rest of a step of `apply_seq`, so kinds are compared with these.
_INSERT, _DELETE, _NOP = OpKind.INSERT, OpKind.DELETE, OpKind.NOP


@dataclass(frozen=True, slots=True)
class Op:
    """One set operation.  Immutable; Nop carries no element."""

    kind: OpKind
    element: Element = None

    def __post_init__(self) -> None:
        if self.kind is _NOP:
            if self.element is not None:
                raise ValueError("Nop carries no element")
        elif self.element is None:
            raise ValueError(f"{self.kind.name} requires an element")

    @staticmethod
    def insert(element: Element) -> "Op":
        return Op(_INSERT, element)

    @staticmethod
    def delete(element: Element) -> "Op":
        return Op(_DELETE, element)

    @property
    def is_nop(self) -> bool:
        return self.kind is _NOP

    def __str__(self) -> str:
        return render_op(self)


NOP = Op(_NOP)

OpSeq = tuple[Op, ...]

_set_kind, _set_element = Op.kind.__set__, Op.element.__set__


def _trusted_op(kind: OpKind, element: Element) -> Op:
    """`Op(kind, element)` for an insert or delete a parser has already checked.

    The slots are written through their descriptors, so neither the frozen
    `__init__` nor `__post_init__` runs; the record is equal all the same.
    Each `__set__` returns None, so the `or` chain makes every write and
    yields the record in one line: a decode calls this once per entry.
    """
    return _set_kind(op := object.__new__(Op), kind) or _set_element(op, element) or op


@dataclass(frozen=True)
class Triple:
    """A value tagged with a grouping key and a logical timestamp.

    Element payload for last-write-wins sets; replicas keep many triples per
    key until a resolution pass picks the newest one (see `resolution`).
    """

    value: Hashable
    key: Hashable
    stamp: int

    def __str__(self) -> str:
        return f"({self.value!s},{self.key!s},{self.stamp!s})"


# ---------------------------------------------------------------------------
# Validity and application


def is_valid(members: AbstractSet[Element], op: Op) -> bool:
    """True when `op` applied to `members` would be effectful (or is Nop)."""
    if op.kind is _NOP:
        return True
    if op.kind is _INSERT:
        return op.element not in members
    return op.element in members


def ineffective(op: Op, index: int | None = None) -> InvalidInsert | InvalidDelete:
    """The error for a non-effectful op; `index` is its place in a sequence."""
    where = "" if index is None else f"op {index}: "
    if op.kind is _INSERT:
        err = InvalidInsert(f"{where}{render_element(op.element)} already present")
    else:
        err = InvalidDelete(f"{where}{render_element(op.element)} not present")
    err.index = index
    return err


def disagreement(x: Element, ours: OpKind, theirs: OpKind) -> DivergenceError:
    """The error for two histories carrying ops of opposite kind on `x`."""
    return DivergenceError(
        f"histories disagree on {render_element(x)}: "
        f"{ours.name.lower()} vs {theirs.name.lower()}"
    )


def apply_op(members: Iterable[Element], op: Op) -> ElementSet:
    """Apply one operation, insisting on effectfulness."""
    members = frozenset(members)
    if not is_valid(members, op):
        raise ineffective(op)
    if op.kind is _NOP:
        return members
    if op.kind is _INSERT:
        return members | {op.element}
    return members - {op.element}


def make_insert(members: AbstractSet[Element], x: Element) -> Op:
    """Insert intent filtered by the current set: Nop when already present."""
    return Op.insert(x) if x not in members else NOP


def make_delete(members: AbstractSet[Element], x: Element) -> Op:
    """Delete intent filtered by the current set: Nop when absent."""
    return Op.delete(x) if x in members else NOP


def validate_seq(members: Iterable[Element], seq: Sequence[Op]) -> bool:
    """True when every op in `seq` is effectful against the running state."""
    try:
        apply_seq(members, seq)
    except (InvalidInsert, InvalidDelete):
        return False
    return True


def apply_seq(members: Iterable[Element], seq: Sequence[Op]) -> ElementSet:
    """Fold a sequence over a set; failures carry the offending index.

    The fold mutates one private copy and freezes it once at the end.
    """
    current = set(members)
    for i, op in enumerate(seq):
        kind = op.kind
        if kind is _INSERT:
            if op.element in current:
                raise ineffective(op, i)
            current.add(op.element)
        elif kind is _DELETE:
            if op.element not in current:
                raise ineffective(op, i)
            current.remove(op.element)
    return frozenset(current)


# ---------------------------------------------------------------------------
# Normalization and transforms


def normalize(seq: Sequence[Op]) -> OpSeq:
    """Replace mutually canceling operations with Nop, preserving length.

    A valid sequence touches each element with strictly alternating kinds, so
    the ops on one element cancel in consecutive pairs: a pair becomes two
    Nops when its second op arrives.  An even number of operations on one
    element thus has no net effect, and an odd number leaves its last
    operation standing; for alternating kinds that equals the first, and
    every other element's membership is unaffected by the move.  The result
    touches each element at most once.
    """
    ops = list(seq)
    waiting: dict[Element, int] = {}  # element -> position of its unpaired op
    for i, op in enumerate(ops):
        if op.kind is not _NOP:
            j = waiting.pop(op.element, None)
            if j is None:
                waiting[op.element] = i
            else:
                ops[i] = ops[j] = NOP
    return tuple(ops)


def transform_remote(local_ops: Sequence[Op], remote_ops: Sequence[Op]) -> OpSeq:
    """Rewrite remote operations so they apply after `local_ops`.

    Both inputs must be normalized and valid against the same base set.  A
    remote op duplicating a local op (same element, same kind) becomes Nop;
    everything else passes through unchanged.  A shared element with
    differing kinds is contradictory for such histories, so it raises
    DivergenceError.
    """
    # Nop is the only op without an element, so the None key it leaves
    # behind is dropped and every remote op costs one lookup.
    kinds: dict[Element, OpKind] = {op.element: op.kind for op in local_ops}
    kinds.pop(None, None)
    if not kinds:
        return tuple(remote_ops)
    out: list[Op] = []
    for op in remote_ops:
        kind = kinds.get(op.element)
        if kind is None:
            out.append(op)
        elif kind is op.kind:
            out.append(NOP)
        else:
            raise disagreement(op.element, kind, op.kind)
    return tuple(out)


def transform_local(local_ops: Sequence[Op], remote_ops: Sequence[Op]) -> OpSeq:
    """Rewrite local operations so the remote sequence can be applied as-is."""
    return transform_remote(remote_ops, local_ops)


# ---------------------------------------------------------------------------
# Canonical text

_INT_RE = re.compile(r"-?\d+")


# The only characters a split looks at: brackets move the depth, and a comma
# at depth 0 ends a part.  The regex skips everything else in C.
_STRUCTURE_RE = re.compile(r"[()\[\]{},]")


def _split_top(text: str) -> list[str]:
    """Split on commas outside any (), [], {} nesting."""
    parts: list[str] = []
    depth = 0
    start = 0
    for match in _STRUCTURE_RE.finditer(text):
        ch = match.group()
        if ch == ",":
            if depth == 0:
                i = match.start()
                parts.append(text[start:i])
                start = i + 1
        elif ch in "([{":
            depth += 1
        else:
            depth -= 1
    parts.append(text[start:])
    return parts


def parse_list(text: str, brackets: str, parse_item: Callable, what: str) -> list:
    """Items of a comma-separated list in `brackets`, each read by `parse_item`."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise ValueError(f"malformed {what}: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [parse_item(part) for part in _split_top(inner)]


_TOKEN_RE = re.compile(r"[^\s,()\[\]{}]+")

# parse_element recurses once per nested triple; it refuses more than this.
_MAX_TRIPLES = 100


# Ints inside this bound always round-trip.  A longer one may exceed
# sys.get_int_max_str_digits(), which str() and int() refuse, so it takes the
# round trip like any other element.
_INT_FAST = 10**18


def is_wire_element(x: Element) -> bool:
    """True when `x` parses back from its canonical text, equal and of one type."""
    if type(x) is int and -_INT_FAST < x < _INT_FAST:
        return True
    try:
        return _same(parse_element(render_element(x)), x)
    except ValueError:
        return False


def describe_element(x: Element) -> str:
    """`repr(x)`, or its type where Python refuses to print an int that long."""
    try:
        return repr(x)
    except ValueError:
        size = f" of {x.bit_length()} bits" if type(x) is int else ""
        return f"<{type(x).__name__}{size}, too long to print>"


def _same(a: Element, b: Element) -> bool:
    """Equal and of one type, down to each field of a triple."""
    if type(a) is type(b) is Triple:
        return all(map(_same, (a.value, a.key, a.stamp), (b.value, b.key, b.stamp)))
    return type(a) is type(b) and a == b


def render_element(x: Element) -> str:
    return str(x)


def parse_element(text: str) -> Element:
    """Inverse of render_element: an integer, a token or a triple, else ValueError."""
    text = text.strip()
    if _INT_RE.fullmatch(text):
        return int(text)
    if _TOKEN_RE.fullmatch(text):
        return text
    parts = parse_list(text, "()", str.strip, "element")
    if text.count("(") > _MAX_TRIPLES:
        raise ValueError(f"element holds more than {_MAX_TRIPLES} triples")
    if len(parts) != 3:
        raise ValueError(f"malformed triple: {text!r}")
    value, key, stamp = parts
    if not _INT_RE.fullmatch(stamp):
        raise ValueError(f"triple timestamp must be an integer: {text!r}")
    return Triple(parse_element(value), parse_element(key), int(stamp))


def element_sort_key(x: Element) -> tuple:
    """Total order used only for deterministic rendering and enumeration."""
    if type(x) is int:
        return (0, x, "")
    if type(x) is str:
        return (1, 0, x)
    if type(x) is Triple:
        return (2, x.stamp, render_element(x))
    return (3, 0, repr(x))


# OpKind("+"), `.value` and hashing a member all run Python code, so a sign
# is read through this dict and written by comparing kinds.
_KIND_OF_SIGN = {"+": _INSERT, "-": _DELETE}


def render_op(op: Op) -> str:
    kind = op.kind
    if kind is _NOP:
        return "!"
    return ("+" if kind is _INSERT else "-") + render_element(op.element)


def parse_op(text: str) -> Op:
    text = text.strip()
    if text == "!":
        return NOP
    kind = _KIND_OF_SIGN.get(text[:1])
    if kind is None or len(text) == 1:
        raise ValueError(f"malformed op: {text!r}")
    return Op(kind, parse_element(text[1:]))


def render_op_seq(seq: Sequence[Op]) -> str:
    return "[" + ",".join(render_op(op) for op in seq) + "]"


def parse_op_seq(text: str) -> OpSeq:
    return tuple(parse_list(text, "[]", parse_op, "op sequence"))


def render_element_set(members: Iterable[Element]) -> str:
    ordered = sorted(frozenset(members), key=element_sort_key)
    return "{" + ",".join(render_element(x) for x in ordered) + "}"


def parse_element_set(text: str) -> ElementSet:
    return frozenset(parse_list(text, "{}", parse_element, "set"))
