"""Oracle merge, exhaustive sequence enumeration, confluence sweeps."""

import pytest

from ccss import conformance, core
from ccss.conformance import (
    Universe,
    check_confluence,
    enumerate_valid_seqs,
    oracle_merge,
)
from ccss.core import (
    NOP,
    CcssError,
    DivergenceError,
    Op,
    apply_seq,
    normalize,
    render_element_set,
    validate_seq,
)


def test_universe_guards():
    with pytest.raises(ValueError):
        Universe((1, 1, 2), frozenset())
    with pytest.raises(ValueError):
        Universe((1, 2), frozenset({3}))


# ---------------------------------------------------------------------------
# oracle_merge


def test_oracle_merge_examples():
    d = frozenset({1, 2})
    assert oracle_merge(d, (NOP, NOP), (Op.delete(2), Op.insert(3))) == {1, 3}
    assert oracle_merge(d, (), ()) == {1, 2}
    assert oracle_merge(
        d, (Op.insert(4), Op.delete(1)), (Op.delete(1), Op.insert(6))
    ) == {2, 4, 6}


def test_oracle_merge_is_symmetric():
    d = frozenset({1, 2})
    ps = (Op.insert(4), Op.delete(1))
    qs = (Op.delete(2), Op.insert(6))
    assert oracle_merge(d, ps, qs) == oracle_merge(d, qs, ps)


def test_oracle_merge_rejects_kind_clash():
    with pytest.raises(DivergenceError):
        oracle_merge(frozenset({1}), (Op.insert(5),), (Op.delete(5),))


# ---------------------------------------------------------------------------
# enumerate_valid_seqs


def recursive_count(elements, base, max_len):
    # Independent recount: a sequence either stops here or continues with
    # any effectful op on the current state.
    if max_len == 0:
        return 1
    total = 1
    for x in elements:
        if x in base:
            total += recursive_count(elements, base - {x}, max_len - 1)
        else:
            total += recursive_count(elements, base | {x}, max_len - 1)
    return total


def test_enumeration_small_exact():
    u = Universe((1, 2), frozenset({1}))
    seqs = enumerate_valid_seqs(u, 2)
    assert seqs == [
        (),
        (Op.insert(2),),
        (Op.delete(1),),
        (Op.insert(2), Op.delete(1)),
        (Op.insert(2), Op.delete(2)),
        (Op.delete(1), Op.insert(1)),
        (Op.delete(1), Op.insert(2)),
    ]
    assert len(seqs) == recursive_count((1, 2), frozenset({1}), 2) == 7


def test_enumeration_counts_and_validity():
    for size in (1, 2, 3):
        elements = tuple(range(1, size + 1))
        for base in (frozenset(), frozenset({1})):
            if not base <= frozenset(elements):
                continue
            u = Universe(elements, base)
            seqs = enumerate_valid_seqs(u, 3)
            assert len(seqs) == recursive_count(elements, base, 3)
            assert len(set(seqs)) == len(seqs)
            assert all(validate_seq(base, s) for s in seqs)


def test_enumeration_order_is_deterministic():
    u = Universe((1, 2, 3), frozenset({1}))
    assert enumerate_valid_seqs(u, 2) == enumerate_valid_seqs(u, 2)
    assert enumerate_valid_seqs(u, 0) == [()]


# ---------------------------------------------------------------------------
# check_confluence


def test_confluence_zero_length():
    report = check_confluence(Universe((1, 2), frozenset()), 0)
    assert report.checked == 1
    assert report.ok


def test_confluence_small_sweep_clean():
    u = Universe((1, 2, 3), frozenset({1, 2}))
    seqs = enumerate_valid_seqs(u, 2)
    report = check_confluence(u, 2)
    assert report.checked == len(seqs) ** 2
    assert report.failures == []


def test_confluence_directed_example():
    report = check_confluence(Universe((1, 2, 3), frozenset({1, 2})), 2)
    assert report.ok
    # The flagship pair is inside the sweep; check it directly as well.
    d = frozenset({1, 2})
    assert oracle_merge(
        d,
        (NOP, NOP),
        (Op.delete(2), Op.insert(3)),
    ) == oracle_merge(d, (Op.delete(2), Op.insert(3)), (NOP, NOP)) == {1, 3}


def test_confluence_failure_rendering():
    # Failures are data with a readable rendering, not exceptions.
    from ccss.conformance import ConfluenceFailure

    failure = ConfluenceFailure(
        frozenset({1}), (Op.insert(2),), (Op.delete(1),), "detail"
    )
    text = str(failure)
    assert "base={1}" in text and "ps=[+2]" in text and "detail" in text


def naive_confluence(universe, max_len):
    # The sweep as one loop over ordered pairs, every route computed afresh.
    # It reads normalize through conformance, so a patched one applies here.
    base = universe.base
    cached = [
        (seq, conformance.normalize(seq), apply_seq(base, seq))
        for seq in enumerate_valid_seqs(universe, max_len)
    ]
    checked = 0
    failures = []
    for ps, nps, after_ps in cached:
        for qs, nqs, after_qs in cached:
            checked += 1
            try:
                at_p = apply_seq(after_ps, core.transform_remote(nps, nqs))
                at_q = apply_seq(after_qs, core.transform_remote(nqs, nps))
                local = apply_seq(base, core.transform_local(nps, nqs) + nqs)
                expected = oracle_merge(base, nps, nqs)
            except CcssError as exc:
                failures.append(
                    conformance.ConfluenceFailure(
                        base, ps, qs, f"{type(exc).__name__}: {exc}"
                    )
                )
                continue
            if not at_p == at_q == local == expected:
                failures.append(
                    conformance.ConfluenceFailure(
                        base,
                        ps,
                        qs,
                        f"routes {render_element_set(at_p)} / "
                        f"{render_element_set(at_q)} / "
                        f"{render_element_set(local)} "
                        f"vs oracle {render_element_set(expected)}",
                    )
                )
    return checked, [str(f) for f in failures]


def _never_suppress(local_ops, remote_ops):
    return tuple(remote_ops)


def _suppress_everything(local_ops, remote_ops):
    return tuple(NOP for _ in local_ops)


def _nop_everything(seq):
    return tuple(NOP for _ in seq)


def _keep_last_only(seq):
    return tuple(NOP for _ in seq[:-1]) + tuple(seq[-1:])


@pytest.mark.parametrize(
    "name, broken",
    [
        ("transform_remote", _never_suppress),
        ("transform_local", _suppress_everything),
        ("normalize", _nop_everything),
        ("normalize", _keep_last_only),
    ],
)
def test_shared_routes_report_what_a_naive_loop_reports(monkeypatch, name, broken):
    # Histories sharing a normal form and an end state form one class; each
    # pair of classes is judged once, its routes shared with the mirror pair,
    # and its verdict reported for every pair of members.  Under a bug the
    # report must still match the per-pair loop.  The transform bugs make
    # routes raise or disagree; the normalize bugs give distinct histories
    # one wrong normal form, so wrong classes hold several members.
    monkeypatch.setattr(conformance if name == "normalize" else core, name, broken)
    for base in (frozenset(), frozenset({1}), frozenset({1, 2})):
        universe = Universe((1, 2, 3), base)
        report = check_confluence(universe, 3)
        checked, expected = naive_confluence(universe, 3)
        assert expected
        assert report.checked == checked
        assert [str(f) for f in report.failures] == expected


def test_shared_routes_match_a_naive_loop_on_a_clean_sweep():
    # The benchmark's bound, where the classes have several members each.
    for base in (frozenset(), frozenset({1, 2})):
        universe = Universe((1, 2, 3, 4), base)
        seqs = enumerate_valid_seqs(universe, 3)
        classes = {(normalize(s), apply_seq(base, s)) for s in seqs}
        assert len(classes) < len(seqs)
        report = check_confluence(universe, 3)
        assert (report.checked, report.failures) == (len(seqs) ** 2, [])
        assert naive_confluence(universe, 3) == (len(seqs) ** 2, [])
