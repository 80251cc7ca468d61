"""Unit coverage for effectful operations, normalization, and transforms."""

import itertools
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ccss import core
from ccss.core import (
    NOP,
    DivergenceError,
    InvalidDelete,
    InvalidInsert,
    Op,
    OpKind,
    Triple,
    apply_op,
    apply_seq,
    is_valid,
    make_delete,
    make_insert,
    normalize,
    parse_element,
    parse_element_set,
    parse_op,
    parse_op_seq,
    render_element,
    render_element_set,
    render_op,
    render_op_seq,
    transform_local,
    transform_remote,
    validate_seq,
)


def all_bases(universe):
    for r in range(len(universe) + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, r))


# ---------------------------------------------------------------------------
# Op construction


def test_op_construction_guards():
    with pytest.raises(ValueError):
        Op(OpKind.NOP, 3)
    with pytest.raises(ValueError):
        Op(OpKind.INSERT)
    with pytest.raises(ValueError):
        Op(OpKind.DELETE)
    assert Op.insert(3).element == 3
    assert Op.delete(3).kind is OpKind.DELETE
    assert NOP.is_nop


# ---------------------------------------------------------------------------
# Validity and application


def test_is_valid_requires_effectfulness():
    d = frozenset({1, 2})
    assert not is_valid(d, Op.insert(2))
    assert is_valid(d, NOP)
    assert not is_valid(d, Op.delete(3))
    assert is_valid(d, Op.insert(3))
    assert is_valid(d, Op.delete(1))


def test_apply_op_results_and_errors():
    d = frozenset({1, 2})
    assert apply_op(d, Op.insert(3)) == {1, 2, 3}
    assert apply_op(d, NOP) == d
    assert apply_op(d, Op.delete(2)) == {1}
    with pytest.raises(InvalidInsert):
        apply_op(d, Op.insert(2))
    with pytest.raises(InvalidDelete):
        apply_op(d, Op.delete(9))


def test_make_insert_filters_on_presence():
    d = frozenset({1, 2})
    assert make_insert(d, 3) == Op.insert(3)
    assert make_insert(d, 2) == NOP
    assert make_insert(frozenset(), 1) == Op.insert(1)


def test_make_delete_filters_on_absence():
    d = frozenset({1, 2})
    assert make_delete(d, 2) == Op.delete(2)
    assert make_delete(d, 5) == NOP
    assert make_delete(frozenset(), 0) == NOP


def test_validate_seq():
    d = frozenset({1, 2})
    assert validate_seq(d, (Op.insert(3), Op.delete(3)))
    assert not validate_seq(d, (Op.insert(3), Op.insert(3)))
    assert validate_seq(d, ())
    assert not validate_seq(d, (Op.delete(3),))
    assert validate_seq(d, (NOP, NOP))


def test_apply_seq_folds_left():
    d = frozenset({1, 2})
    assert apply_seq(d, (Op.delete(2), Op.insert(3))) == {1, 3}
    assert apply_seq(d, (Op.insert(3), Op.delete(3))) == {1, 2}
    assert apply_seq(d, (NOP, NOP)) == {1, 2}


def test_apply_seq_error_carries_index():
    d = frozenset({1, 2})
    with pytest.raises(InvalidInsert) as info:
        apply_seq(d, (Op.delete(2), Op.insert(1)))
    assert info.value.index == 1
    assert str(info.value) == "op 1: 1 already present"
    with pytest.raises(InvalidDelete) as info:
        apply_seq(d, (Op.delete(2), Op.delete(2)))
    assert info.value.index == 1
    assert str(info.value) == "op 1: 2 not present"
    result = apply_seq(d, (Op.delete(2), NOP, Op.insert(3)))
    assert type(result) is frozenset and result == {1, 3}
    assert d == {1, 2}


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_cancels_pairs():
    assert normalize((Op.insert(3), Op.delete(3))) == (NOP, NOP)


def test_normalize_keeps_disjoint_sequence():
    seq = (Op.delete(2), Op.insert(3))
    assert normalize(seq) == seq


def test_normalize_odd_count_survivor_sits_last():
    seq = (Op.insert(7), Op.delete(7), Op.insert(7))
    normal = normalize(seq)
    assert normal == (NOP, NOP, Op.insert(7))
    # Equivalence checked against plain application on every base the
    # sequence is valid for.
    for base in all_bases((6, 7, 8, 9)):
        if validate_seq(base, seq):
            assert apply_seq(base, normal) == apply_seq(base, seq)


def test_normalize_preserves_length_and_uniqueness():
    seq = (
        Op.insert(1),
        Op.insert(2),
        Op.delete(1),
        Op.delete(2),
        Op.insert(1),
    )
    normal = normalize(seq)
    assert len(normal) == len(seq)
    survivors = [op for op in normal if not op.is_nop]
    assert survivors == [Op.insert(1)]
    assert normal[4] == Op.insert(1)


def test_normalize_empty_and_nop_only():
    assert normalize(()) == ()
    assert normalize((NOP, NOP)) == (NOP, NOP)


# ---------------------------------------------------------------------------
# Transforms


def test_transform_remote_passthrough_when_no_overlap():
    ps = (NOP, NOP)
    qs = (Op.delete(2), Op.insert(3))
    assert transform_remote(ps, qs) == qs


def test_transform_remote_zeroes_same_kind_duplicate():
    assert transform_remote((Op.insert(5),), (Op.insert(5),)) == (NOP,)


def test_transform_local_symmetric_cases():
    assert transform_local((Op.insert(5),), (Op.insert(5),)) == (NOP,)
    ps = (Op.delete(2), Op.insert(3))
    assert transform_local(ps, (NOP, NOP)) == ps


def test_transform_disagreeing_kinds_raise():
    with pytest.raises(DivergenceError):
        transform_remote((Op.insert(5),), (Op.delete(5),))
    with pytest.raises(DivergenceError):
        transform_local((Op.delete(5),), (Op.insert(5),))


def test_transform_worked_example_all_routes_agree():
    base = frozenset({1, 2})
    ps = (Op.insert(4), Op.delete(1))
    qs = (Op.delete(1), Op.insert(6))
    qs_rewritten = transform_remote(ps, qs)
    ps_rewritten = transform_local(ps, qs)
    assert qs_rewritten == (NOP, Op.insert(6))
    assert ps_rewritten == (Op.insert(4), NOP)

    # Both replicas must land on the set-arithmetic outcome.
    expected = (base - {1}) | {4, 6}
    assert expected == {2, 4, 6}
    at_p = apply_seq(apply_seq(base, ps), qs_rewritten)
    at_q = apply_seq(apply_seq(base, qs), transform_remote(qs, ps))
    via_local = apply_seq(base, ps_rewritten + qs)
    assert at_p == at_q == via_local == expected


def test_transform_keeps_nops_in_place():
    qs = (NOP, Op.insert(6), NOP)
    assert transform_remote((Op.insert(6),), qs) == (NOP, NOP, NOP)


def test_transform_empty_sequences():
    assert transform_remote((), ()) == ()
    assert transform_remote((Op.insert(1),), ()) == ()
    assert transform_remote((), (Op.insert(1),)) == (Op.insert(1),)


# ---------------------------------------------------------------------------
# Canonical text


def test_render_and_parse_ops():
    assert render_op(Op.insert(3)) == "+3"
    assert render_op(Op.delete(2)) == "-2"
    assert render_op(NOP) == "!"
    for text in ("+3", "-2", "!", "+abc"):
        assert render_op(parse_op(text)) == text
    with pytest.raises(ValueError):
        parse_op("3")
    with pytest.raises(ValueError):
        parse_op("+")


def test_render_and_parse_op_seq():
    seq = (Op.insert(3), Op.delete(3), NOP)
    text = render_op_seq(seq)
    assert text == "[+3,-3,!]"
    assert parse_op_seq(text) == seq
    assert parse_op_seq("[]") == ()
    with pytest.raises(ValueError):
        parse_op_seq("+3,-3")


def test_render_and_parse_element_set():
    assert render_element_set(frozenset()) == "{}"
    assert render_element_set({2, 1, 3}) == "{1,2,3}"
    assert parse_element_set("{1,2,3}") == frozenset({1, 2, 3})
    assert parse_element_set("{}") == frozenset()
    with pytest.raises(ValueError):
        parse_element_set("1,2")


def test_triple_rendering_round_trip():
    t = Triple("a", 7, 1)
    assert render_element(t) == "(a,7,1)"
    assert parse_element("(a,7,1)") == t
    nested = render_element_set({t, Triple("b", 7, 2)})
    assert parse_element_set(nested) == {t, Triple("b", 7, 2)}
    with pytest.raises(ValueError):
        parse_element("(a,7)")
    with pytest.raises(ValueError):
        parse_element("(a,7,x)")
    with pytest.raises(ValueError):
        parse_element("")


def test_parse_element_refuses_text_it_cannot_read():
    for bad in ("(2,x", "a)b", "((a,k,1)x,k,1)", "a b", "x]", ""):
        with pytest.raises(ValueError, match="malformed element"):
            parse_element(bad)
    # The parser recurses once per triple, so it refuses more than 100.
    nested = "(" * 100 + "a" + ",k,1)" * 100
    assert render_element(parse_element(nested)) == nested
    deep = "(" * 1200 + "a" + ",k,1)" * 1200
    with pytest.raises(ValueError, match="more than 100 triples"):
        parse_element(deep)


def _split_top_by_character(text):
    """The split as it was first written, one character at a time."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=500)
@given(st.text(alphabet="()[]{},a1-@:", max_size=40))
@example("")
@example(",,")
@example("a),b,(c")  # nesting below zero, then back to it
@example("(a,b")  # never closed
@example("[a,(b],c),d")  # closed by the wrong kind of bracket
def test_split_by_structure_matches_the_character_loop(text):
    assert core._split_top(text) == _split_top_by_character(text)
    # Every reader of bracketed lists answers exactly as it did with the
    # character loop, refusals and their messages included.
    readers = (
        lambda t: parse_op_seq("[" + t + "]"),
        lambda t: parse_element_set("{" + t + "}"),
        lambda t: parse_element("(" + t + ")"),
    )
    for parse in readers:
        new = _outcome(parse, text)
        with mock.patch.object(core, "_split_top", _split_top_by_character):
            assert _outcome(parse, text) == new


def test_mixed_element_rendering_is_stable():
    members = {2, 1, "z", "a"}
    assert render_element_set(members) == "{1,2,a,z}"
