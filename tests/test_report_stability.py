"""Simulator reports stay what they were.

Seeded random workloads, with partitions, heals, prunes and state checks
injected by a seeded generator, run through `run_scenario` whole and in up
to three segments per sync, and through `reference_run`.  A sha256 over
every report and replay is compared with a digest recorded from an earlier
implementation, so a change to the delivery path that moves one outcome,
check, count or final state moves the digest.
"""

import hashlib
import random

from ccss.core import CcssError, render_element_set
from ccss.sim import (
    CheckEvent,
    HealEvent,
    PartitionEvent,
    PruneEvent,
    Scenario,
    random_workload,
    reference_run,
    render_report,
    run_scenario,
)

REPORT_DIGEST = "3a1f3f2566fe4fce5f276121a1cb7788ea815b370d5d8d5b0b3b77403075cf3f"


def stressed_scenario(seed: int) -> Scenario:
    """A seeded workload with partitions (most healed later), prunes and checks."""
    rng = random.Random(f"report-stability:{seed}")
    universe = rng.randint(3, 10)
    base = random_workload(
        rng.randint(2, 5), universe, rng.randint(1, 10), rng.choice((0.2, 0.5)), seed
    )
    events = list(base.events)
    names = [name for name, _ in base.peers]
    for _ in range(rng.randint(0, 4) if base.links else 0):
        a, b = rng.choice(base.links)
        heal_at = rng.randrange(len(events) + 1)
        if rng.random() < 0.8:
            events.insert(heal_at, HealEvent(a, b))
        events.insert(rng.randrange(heal_at + 1), PartitionEvent(a, b))
    for _ in range(rng.randint(0, 4)):
        events.insert(rng.randrange(len(events) + 1), PruneEvent(rng.choice(names)))
    for _ in range(rng.randint(1, 3)):
        expected = frozenset(x for x in range(1, universe + 1) if rng.random() < 0.5)
        at = rng.randrange(len(events) + 1)
        events.insert(at, CheckEvent(rng.choice(names), expected))
    return Scenario(base.peers, base.links, tuple(events))


def _outcome(execute) -> str:
    try:
        return execute()
    except CcssError as exc:
        return f"RAISES {type(exc).__name__}: {exc}\n"


def _render_run(scenario: Scenario, seed: int, segments: int) -> str:
    report = run_scenario(scenario, seed, max_segments=segments)
    lines = [
        f"CHECK {c.event_index} {c.peer} {render_element_set(c.expected)} "
        f"{render_element_set(c.actual)} {c.passed}"
        for c in report.checks
    ]
    lines.append(
        f"OPS {report.ops_applied} DELIVERED {report.messages_delivered} "
        f"DROPPED {report.messages_dropped}"
    )
    return render_report(report) + "\n".join(lines) + "\n"


def _render_replay(scenario: Scenario) -> str:
    states = reference_run(scenario)
    return "".join(
        f"REFERENCE {name} {render_element_set(members)}\n"
        for name, members in sorted(states.items())
    )


def report_digest(seeds) -> str:
    """One sha256 over every seed's runs at 1 and 3 segments and its replay."""
    digest = hashlib.sha256()
    for seed in seeds:
        scenario = stressed_scenario(seed)
        digest.update(f"SEED {seed}\n".encode())
        for segments in (1, 3):
            digest.update(_outcome(lambda: _render_run(scenario, seed, segments)).encode())
        digest.update(_outcome(lambda: _render_replay(scenario)).encode())
    return digest.hexdigest()


def test_reports_are_unchanged():
    assert report_digest(range(400)) == REPORT_DIGEST
