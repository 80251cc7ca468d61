"""End-to-end acceptance gate.

Each test covers one advertised guarantee, measures its own runtime budget,
and prints exactly one PASS/FAIL line outside the capture so the gate's
verdicts are visible in any test run.
"""

import itertools
import random
import time

from ccss.baselines import TwoPhaseSet, twopset_apply, twopset_merge, twopset_value
from ccss.conformance import Universe, check_confluence
from ccss.core import (
    Op,
    Triple,
    apply_op,
    apply_seq,
    normalize,
    validate_seq,
)
from ccss.peer import handle_sync, init_peer, local_update, prepare_sync, prune_log
from ccss.resolution import lww_insert, lww_resolve
from ccss.sim import (
    PruneEvent,
    Scenario,
    parse_scenario,
    random_workload,
    reference_run,
    run_scenario,
)

RECONNECT = """\
PEER P {1,2}
PEER Q {1,2}
LINK P Q
PARTITION P Q
OP P insert 3
OP P delete 3
OP Q delete 2
OP Q insert 3
HEAL P Q
SYNC P Q
SYNC Q P
CHECK P {1,3}
CHECK Q {1,3}
"""


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_partition_reconnect_regression(capsys):
    t0 = time.monotonic()
    report = run_scenario(parse_scenario(RECONNECT), seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        report.final_states == {"P": frozenset({1, 3}), "Q": frozenset({1, 3})}
        and report.convergence
        and report.checks_passed
        and elapsed < 1.0
    )
    verdict(
        capsys,
        "partition-reconnect regression",
        ok,
        f"both peers {{1,3}} in {elapsed:.3f}s",
    )


def test_tombstone_baseline_contrast(capsys):
    t0 = time.monotonic()
    report = run_scenario(parse_scenario(RECONNECT), seed=0)
    start = TwoPhaseSet(frozenset({1, 2}), frozenset())
    p = twopset_apply(twopset_apply(start, "insert", 3), "delete", 3)
    q = twopset_apply(twopset_apply(start, "delete", 2), "insert", 3)
    merged = twopset_merge(p, q)
    elapsed = time.monotonic() - t0
    ok = (
        report.final_states["P"] == frozenset({1, 3})
        and twopset_value(merged) == frozenset({1})
        and 3 in merged.removed
        and elapsed < 1.0
    )
    verdict(
        capsys,
        "tombstone baseline contrast",
        ok,
        f"effectful merge {{1,3}} vs two-phase value {{1}} (3 tombstoned) "
        f"in {elapsed:.3f}s",
    )


def test_exhaustive_confluence_sweep(capsys):
    t0 = time.monotonic()
    checked = 0
    failures = []
    for size in (1, 2, 3, 4):
        elements = tuple(range(1, size + 1))
        prefix = elements[: min(2, size)]
        for r in range(len(prefix) + 1):
            for combo in itertools.combinations(prefix, r):
                report = check_confluence(Universe(elements, frozenset(combo)), 3)
                checked += report.checked
                failures.extend(report.failures)
    elapsed = time.monotonic() - t0
    ok = not failures and checked >= 10_000 and elapsed < 30.0
    verdict(
        capsys,
        "exhaustive confluence sweep",
        ok,
        f"{checked} pairs, {len(failures)} failures in {elapsed:.2f}s",
    )


def _random_valid_history(rng, elements, base, max_len):
    current = set(base)
    ops = []
    for _ in range(rng.randint(0, max_len)):
        candidates = [Op.insert(x) for x in elements if x not in current]
        candidates += [Op.delete(x) for x in sorted(current)]
        op = rng.choice(candidates)
        ops.append(op)
        current = set(apply_op(current, op))
    return tuple(ops)


def test_algebraic_law_suite(capsys):
    t0 = time.monotonic()
    rng = random.Random(20_2608)
    elements = tuple(range(1, 6))
    cases = 1_200
    counts = dict.fromkeys(
        ("cancellation", "commutativity", "soundness", "idempotence",
         "no-duplicates", "same-kind"),
        0,
    )

    for _ in range(cases):
        base = frozenset(x for x in elements if rng.random() < 0.5)
        x = rng.choice(elements)
        pair = (
            (Op.delete(x), Op.insert(x))
            if x in base
            else (Op.insert(x), Op.delete(x))
        )
        assert apply_seq(base, pair) == base
        counts["cancellation"] += 1

        seq = _random_valid_history(rng, elements, base, 6)
        if len(seq) >= 2:
            i = rng.randrange(len(seq) - 1)
            if seq[i].element != seq[i + 1].element:
                swapped = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2 :]
                assert validate_seq(base, swapped)
                assert apply_seq(base, swapped) == apply_seq(base, seq)
        counts["commutativity"] += 1

        normal = normalize(seq)
        assert apply_seq(base, normal) == apply_seq(base, seq)
        counts["soundness"] += 1
        assert normalize(normal) == normal
        counts["idempotence"] += 1
        touched = [op.element for op in normal if not op.is_nop]
        assert len(touched) == len(set(touched))
        assert len(normal) == len(seq)
        counts["no-duplicates"] += 1

        other = normalize(_random_valid_history(rng, elements, base, 6))
        kinds = {op.element: op.kind for op in normal if not op.is_nop}
        for op in other:
            if not op.is_nop and op.element in kinds:
                assert kinds[op.element] is op.kind
        counts["same-kind"] += 1

    elapsed = time.monotonic() - t0
    ok = all(n >= 1_000 for n in counts.values())
    verdict(
        capsys,
        "algebraic law suite",
        ok,
        f"{len(counts)} laws x {cases} generated cases in {elapsed:.2f}s",
    )


def _workload(seed):
    return random_workload(
        peers=3 + seed % 3,
        universe_size=6,
        ops_per_peer=20,
        sync_density=0.2,
        seed=seed,
    )


def test_multi_peer_eventual_consistency(capsys):
    t0 = time.monotonic()
    bad = []
    for seed in range(1, 101):
        scenario = _workload(seed)
        report = run_scenario(scenario, seed=seed)
        if not report.convergence:
            bad.append(f"seed {seed}: not converged")
        elif reference_run(scenario) != report.final_states:
            bad.append(f"seed {seed}: differs from set-semantics replay")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    verdict(
        capsys,
        "multi-peer eventual consistency",
        ok,
        bad[0] if bad else f"100 seeded workloads converged in {elapsed:.2f}s",
    )


def test_segmented_delivery_equivalence(capsys):
    t0 = time.monotonic()
    bad = []
    for seed in range(1, 101):
        scenario = _workload(seed)
        whole = run_scenario(scenario, seed=seed)
        split = run_scenario(scenario, seed=seed, max_segments=3)
        if whole.final_states != split.final_states:
            bad.append(f"seed {seed}: split run differs")
    elapsed = time.monotonic() - t0
    ok = not bad
    verdict(
        capsys,
        "segmented delivery equivalence",
        ok,
        bad[0] if bad else f"100 trials, 2-3 segments each, in {elapsed:.2f}s",
    )


def test_prune_transparency(capsys):
    t0 = time.monotonic()
    bad = []
    for seed in range(1, 21):
        scenario = _workload(seed)
        events = []
        for event in scenario.events:
            events.append(event)
            events.extend(PruneEvent(name) for name, _ in scenario.peers)
        pruned = Scenario(scenario.peers, scenario.links, tuple(events))
        if (
            run_scenario(pruned, seed=seed).final_states
            != run_scenario(scenario, seed=seed).final_states
        ):
            bad.append(f"seed {seed}: pruning changed the outcome")

    # Full bidirectional sync leaves nothing worth keeping on either side.
    p = init_peer("P", frozenset({1, 2}), ("Q",))
    q = init_peer("Q", frozenset({1, 2}), ("P",))
    local_update(p, "insert", 3)
    local_update(p, "delete", 3)
    local_update(q, "delete", 2)
    local_update(q, "insert", 3)
    handle_sync(q, prepare_sync(p, "Q"))
    handle_sync(p, prepare_sync(q, "P"))
    handle_sync(q, prepare_sync(p, "Q"))
    prune_log(p)
    prune_log(q)
    if p.log or q.log:
        bad.append("two-peer logs not emptied after full sync")

    elapsed = time.monotonic() - t0
    ok = not bad
    verdict(
        capsys,
        "prune transparency",
        ok,
        bad[0]
        if bad
        else f"prunes at every boundary of 20 scenarios, logs emptied, "
        f"in {elapsed:.2f}s",
    )


def _lww_pair():
    p = init_peer("P", frozenset(), ("Q",))
    q = init_peer("Q", frozenset(), ("P",))
    return p, q


def _settle(p, q):
    for _ in range(3):
        handle_sync(q, prepare_sync(p, "Q"))
        handle_sync(p, prepare_sync(q, "P"))


def test_lww_resolution_convergence(capsys):
    t0 = time.monotonic()
    winner = Triple("b", 7, 2)
    results = []
    for sync_first in ("P", "Q"):
        for resolve_both in (False, True):
            p, q = _lww_pair()
            lww_insert(p, "a", 7, 1)
            lww_insert(q, "b", 7, 2)
            if sync_first == "P":
                handle_sync(q, prepare_sync(p, "Q"))
                handle_sync(p, prepare_sync(q, "P"))
            else:
                handle_sync(p, prepare_sync(q, "P"))
                handle_sync(q, prepare_sync(p, "Q"))
            lww_resolve(p)
            if resolve_both:
                lww_resolve(q)
            _settle(p, q)
            results.append(p.data == q.data == {winner})

    # Equal stamps: every replica must elect the same survivor.
    p, q = _lww_pair()
    lww_insert(p, "a", 7, 3)
    lww_insert(q, "b", 7, 3)
    _settle(p, q)
    lww_resolve(p)
    lww_resolve(q)
    _settle(p, q)
    tie = Triple("b", 7, 3)
    results.append(p.data == q.data == {tie})

    elapsed = time.monotonic() - t0
    ok = all(results)
    verdict(
        capsys,
        "last-write-wins resolution",
        ok,
        f"newest stamp wins under every sync order, ties deterministic, "
        f"in {elapsed:.3f}s",
    )
