"""The benchmark's four workloads and the checks that judge their outputs.

Each workload builds its inputs from the seed alone, so an episode can be
rebuilt from scratch any number of times with identical inputs.  `setup`
makes the inputs and fresh replicas, `episode` runs the timed calls in a
closed loop (each call starts after the previous one returns), and `check`
compares the outputs with an answer computed apart from the program.

All calls go through module attributes (`peer.local_update`, never a name
imported into this file), so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass, field
from time import perf_counter

from ccss import cli, peer, sim


@dataclass
class Episode:
    """What one episode produced: its timed operations and its outputs."""

    ops: int
    op_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    outputs: object = None

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


def sync(src: peer.PeerState, dst: peer.PeerState, ep: Episode) -> float:
    """One directed sync through the wire format; returns its latency.

    Only syncs that carry operations are sampled as sync latency: an
    acknowledgment-only sync is another, far cheaper, kind of call.
    """
    t0 = perf_counter()
    msg = peer.prepare_sync(src, dst.id)
    text = peer.encode_sync_message(msg)
    peer.handle_sync(dst, peer.parse_sync_message(text))
    elapsed = perf_counter() - t0
    ep.add("wire_bytes", len(text.encode()))
    if msg.payload:
        ep.add("sync_s", elapsed)
    return elapsed


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def tail_figures(name: str, values: list[float], scale: float, unit: str) -> list:
    """Median, plus the 99th percentile where at least 1000 samples back it."""
    if not values:
        return []
    out = [(f"{name}_p50_{unit}", quantile(values, 0.5) * scale, unit, len(values))]
    if len(values) >= 1000:
        out.append((f"{name}_p99_{unit}", quantile(values, 0.99) * scale, unit, len(values)))
    return out


def expected_set(initial, intents) -> frozenset:
    """Plain-set replay of intents applied one after another."""
    members = set(initial)
    for intent, x in intents:
        if intent == "insert":
            members.add(x)
        else:
            members.discard(x)
    return frozenset(members)


# ---------------------------------------------------------------------------
# big-set


class BigSet:
    """Three replicas on a line A-B-C sharing a 100k-element set.

    Every update is carried to all replicas, and acknowledged back, before
    the next one starts, so nothing is concurrent and logs stay short after
    pruning.  Whole-set work per call dominates.
    """

    name = "big-set"
    universe = 200_000
    size = 100_000
    updates = 40
    noop_every = 10  # every tenth intent has no effect on the set
    # Directed syncs per originating replica: outward first, then back.
    routes = {
        0: ((0, 1), (1, 2), (2, 1), (1, 0)),
        1: ((1, 0), (1, 2), (0, 1), (2, 1)),
        2: ((2, 1), (1, 0), (0, 1), (1, 2)),
    }

    def setup(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        initial = frozenset(rng.sample(range(self.universe), self.size))
        members = set(initial)
        intents = []
        for i in range(self.updates):
            x = rng.randrange(self.universe)
            effectful = i % self.noop_every != self.noop_every - 1
            intent = "delete" if (x in members) == effectful else "insert"
            if effectful:
                members.symmetric_difference_update({x})
            intents.append((rng.randrange(3), intent, x))
        replicas = [
            peer.init_peer("A", initial, ("B",)),
            peer.init_peer("B", initial, ("A", "C")),
            peer.init_peer("C", initial, ("B",)),
        ]
        return initial, intents, replicas

    def ops(self, state) -> int:
        return len(state[1])

    def episode(self, state, ep: Episode) -> None:
        _, intents, replicas = state
        for origin, intent, x in intents:
            t0 = perf_counter()
            applied = peer.local_update(replicas[origin], intent, x)
            update_s = perf_counter() - t0
            sync_s = [sync(replicas[s], replicas[d], ep) for s, d in self.routes[origin]]
            t1 = perf_counter()
            for replica in replicas:
                peer.prune_log(replica)
            prune_s = perf_counter() - t1
            ep.op_s.append(update_s + sum(sync_s) + prune_s)
            ep.add("update_s", update_s)
            ep.add("effectful", applied is not None)
        # The live sets, not copies: the check runs before anything else
        # touches them, and copies would add to the peak memory.
        ep.outputs = [r.data for r in replicas]

    def check(self, state, outputs) -> str | None:
        initial, intents, _ = state
        want = expected_set(initial, [(i, x) for _, i, x in intents])
        return check_equal_sets(dict(zip("ABC", outputs)), want)

    def figures(self, samples) -> list:
        return replica_figures(samples)


def check_equal_sets(actual: dict, want: frozenset) -> str | None:
    """Every named set equals `want`; otherwise say which and how."""
    for name, members in sorted(actual.items()):
        if members != want:
            extra = sorted(members - want)[:3]
            missing = sorted(want - members)[:3]
            return f"{name}: extra {extra}, missing {missing}"
    return None


def replica_figures(samples) -> list:
    return (
        tail_figures("update", samples.get("update_s", []), 1e6, "us")
        + tail_figures("sync", samples.get("sync_s", []), 1e3, "ms")
        + [wire_figure(samples)]
    )


def wire_figure(samples) -> tuple:
    effectful = max(1, sum(samples.get("effectful", [])))
    return ("wire_bytes_per_op", sum(samples.get("wire_bytes", [])) / effectful, "B/op", effectful)


# ---------------------------------------------------------------------------
# long-history


class LongHistory:
    """Four replicas in a tree (a hub P2 with three leaves) over 2000 elements.

    A sync follows every fourth update, taking the links and directions in
    a fixed rotation, and logs are never pruned, so log scans grow through
    the episode while sets stay small.
    One operation is the updates since the previous sync plus that sync.
    """

    name = "long-history"
    links = (("P1", "P2"), ("P2", "P3"), ("P2", "P4"))
    universe = 2000
    updates = 3000
    sync_every = 4

    def __init__(self) -> None:
        self._reference: dict | None = None

    def setup(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        links = self.links
        names = sorted({n for link in links for n in link})
        initial = frozenset(x for x in range(self.universe) if rng.random() < 0.5)
        rotation = [pair for a, b in links for pair in ((a, b), (b, a))]
        events: list = []
        for i in range(self.updates):
            intent = rng.choice(("insert", "delete"))
            events.append(sim.OpEvent(rng.choice(names), intent, rng.randrange(self.universe)))
            if i % self.sync_every == self.sync_every - 1:
                turn = i // self.sync_every % len(rotation)
                events.append(sim.SyncEvent(*rotation[turn]))
        # Closing full rounds: enough for every update to reach every replica.
        for _ in names:
            for a, b in links:
                events += [sim.SyncEvent(a, b), sim.SyncEvent(b, a)]
        scenario = sim.Scenario(
            tuple((n, initial) for n in names), links, tuple(events)
        )
        neighbors = {n: [] for n in names}
        for a, b in links:
            neighbors[a].append(b)
            neighbors[b].append(a)
        replicas = {n: peer.init_peer(n, initial, tuple(neighbors[n])) for n in names}
        return scenario, replicas

    def ops(self, state) -> int:
        return sum(isinstance(e, sim.SyncEvent) for e in state[0].events)

    def episode(self, state, ep: Episode) -> None:
        scenario, replicas = state
        pending = 0.0
        for event in scenario.events:
            if isinstance(event, sim.OpEvent):
                t0 = perf_counter()
                applied = peer.local_update(replicas[event.peer], event.intent, event.element)
                update_s = perf_counter() - t0
                pending += update_s
                ep.add("update_s", update_s)
                ep.add("effectful", applied is not None)
            else:
                sync_s = sync(replicas[event.src], replicas[event.dst], ep)
                ep.op_s.append(pending + sync_s)
                pending = 0.0
        ep.add("log_entries", max(len(r.log) for r in replicas.values()))
        ep.outputs = {n: frozenset(r.data) for n, r in replicas.items()}

    def check(self, state, outputs) -> str | None:
        # Every episode replays the same scenario, so one reference serves all.
        if self._reference is None:
            self._reference = sim.reference_run(state[0])
        return check_reference(outputs, self._reference)

    def figures(self, samples) -> list:
        return replica_figures(samples) + [
            ("log_entries_max", max(samples.get("log_entries", [0])), "count", 1)
        ]


def check_reference(actual: dict, reference: dict) -> str | None:
    """Replicas converged and match the set-arithmetic replay."""
    if len(set(actual.values())) != 1:
        return "replicas did not converge"
    for name in sorted(reference):
        if actual.get(name) != reference[name]:
            return f"{name} differs from reference_run"
    return None


# ---------------------------------------------------------------------------
# partition-heal


class PartitionHeal:
    """Two replicas of a 10k-element set drift apart, then catch up, in rounds.

    In each round both sides make a burst of effectful updates while
    partitioned, some undoing the side's previous update (canceling pairs)
    and some drawn from a pool both sides touch (concurrent duplicates).
    The heal is one exchange each way, carrying the whole burst in one
    message; it is the round's one operation.  The bursts and the settling
    after the heal (acknowledgments each way, then pruning) are untimed
    for the operation, so an operation's latency is the catch-up alone.
    """

    name = "partition-heal"
    universe = 20_000
    size = 10_000
    rounds = 3
    burst = 300  # updates per side and round
    shared_pool = 300
    undo_share = 0.2
    shared_share = 0.15

    def setup(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        base = frozenset(rng.sample(range(self.universe), self.size))
        pool = rng.sample(range(self.universe), self.shared_pool)
        rounds = []  # (set both sides hold before the round, both sides' plans)
        start = base
        for _ in range(self.rounds):
            plans = [self._burst(rng, start, pool) for _ in range(2)]
            rounds.append((start, plans))
            start = healed_set(start, *plans)
        sides = [
            peer.init_peer("A", base, ("B",)),
            peer.init_peer("B", base, ("A",)),
        ]
        return rounds, sides

    def _burst(self, rng: random.Random, base: frozenset, pool: list) -> list:
        members = set(base)
        plan: list = []
        for _ in range(self.burst):
            r = rng.random()
            if plan and r < self.undo_share:
                x = plan[-1][1]
            elif r < self.undo_share + self.shared_share:
                x = rng.choice(pool)
            else:
                x = rng.randrange(self.universe)
            plan.append(("delete" if x in members else "insert", x))
            members.symmetric_difference_update({x})
        return plan

    def ops(self, state) -> int:
        return len(state[0])

    def episode(self, state, ep: Episode) -> None:
        rounds, sides = state
        a, b = sides
        ep.outputs = []
        for _, plans in rounds:
            for step in range(self.burst):
                for side, plan in zip(sides, plans):
                    intent, x = plan[step]
                    t0 = perf_counter()
                    applied = peer.local_update(side, intent, x)
                    ep.add("update_s", perf_counter() - t0)
                    ep.add("effectful", applied is not None)
            heal_s = sync(a, b, ep) + sync(b, a, ep)
            ep.op_s.append(heal_s)
            ep.add("catchup_s", heal_s)
            ep.outputs.append({"A": frozenset(a.data), "B": frozenset(b.data)})
            # Settle, untimed: acknowledgments each way let both logs prune
            # to empty, so every round starts alike.
            sync(a, b, ep)
            sync(b, a, ep)
            for side in sides:
                peer.prune_log(side)

    def check(self, state, outputs) -> str | None:
        rounds = state[0]
        if len(outputs) != len(rounds):
            return f"{len(outputs)} heals for {len(rounds)} rounds"
        for i, ((start, plans), healed) in enumerate(zip(rounds, outputs), 1):
            problem = check_equal_sets(healed, healed_set(start, *plans))
            if problem:
                return f"round {i}: {problem}"
        return None

    def figures(self, samples) -> list:
        catchup = samples.get("catchup_s", [])
        return tail_figures("update", samples.get("update_s", []), 1e6, "us")[:1] + [
            ("catchup_s", quantile(catchup, 0.5), "s", len(catchup)),
            wire_figure(samples),
        ]


def healed_set(base: frozenset, plan_a: list, plan_b: list) -> frozenset:
    """(base - deleted_A - deleted_B) | inserted_A | inserted_B, from plain sets."""
    end_a, end_b = expected_set(base, plan_a), expected_set(base, plan_b)
    deleted = (base - end_a) | (base - end_b)
    inserted = (end_a - base) | (end_b - base)
    return (base - deleted) | inserted


# ---------------------------------------------------------------------------
# fuzz-sweep


SWEEP = {"universe": 4, "base_bits": 2, "max_len": 3}


def sweep_size(universe: int, base_bits: int, max_len: int) -> int:
    """Pairs `ccss conformance` checks: every step has `universe` effectful choices."""
    per_base = sum(universe**n for n in range(max_len + 1))
    return 2**base_bits * per_base**2


def check_sweep(code: int, output: str, expected_checked: int) -> str | None:
    match = re.fullmatch(r"checked=(\d+) failures=(\d+)\s*", output)
    if code != 0 or match is None:
        return f"conformance exited {code}: {output.strip()!r}"
    checked, failures = int(match[1]), int(match[2])
    if failures or checked != expected_checked:
        return f"checked={checked} failures={failures}, expected checked={expected_checked}"
    return None


class FuzzSweep:
    """The test suite's traffic: many tiny seeded scenarios, then a sweep.

    Each scenario is made as the acceptance tests make theirs (3 to 5 peers
    in a tree, universe 6, 20 updates per peer, sync density 0.2) and runs
    through `run_scenario` with segmented delivery and through
    `reference_run`; one operation is one scenario.  The episode ends with
    a `ccss conformance` sweep the size of the acceptance tests' largest
    universe, one operation per base set.
    """

    name = "fuzz-sweep"
    scenarios = 250
    workload = {"universe_size": 6, "ops_per_peer": 20, "sync_density": 0.2}
    max_segments = 3

    def setup(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [rng.randrange(2**31) for _ in range(self.scenarios)]
        return [
            (s, sim.random_workload(peers=3 + s % 3, seed=s, **self.workload))
            for s in seeds
        ]

    def ops(self, state) -> int:
        return len(state) + 2 ** SWEEP["base_bits"]

    def episode(self, state, ep: Episode) -> None:
        bases = 2 ** SWEEP["base_bits"]
        runs = []
        for seed, scenario in state:
            t0 = perf_counter()
            report = sim.run_scenario(scenario, seed, max_segments=self.max_segments)
            t1 = perf_counter()
            reference = sim.reference_run(scenario)
            t2 = perf_counter()
            ep.op_s.append(t2 - t0)
            ep.add("sim_s", t1 - t0)
            ep.add("reference_s", t2 - t1)
            ep.add("events", len(scenario.events))
            runs.append((report, reference))
        argv = ["conformance"] + [
            f"--{key.replace('_', '-')}={value}" for key, value in SWEEP.items()
        ]
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        sweep_s = perf_counter() - t0
        ep.add("sweep_s", sweep_s)
        # Bases are timed together; each gets an equal share of the sweep.
        ep.op_s.extend([sweep_s / bases] * bases)
        ep.outputs = runs, code, out.getvalue()

    def check(self, state, outputs) -> str | None:
        runs, code, text = outputs
        for (seed, _), (report, reference) in zip(state, runs):
            if not report.convergence:
                return f"scenario seed {seed} did not converge"
            problem = check_reference(report.final_states, reference)
            if problem:
                return f"scenario seed {seed}: {problem}"
        return check_sweep(code, text, sweep_size(**SWEEP))

    def figures(self, samples) -> list:
        events = sum(samples.get("events", []))
        sweeps = samples.get("sweep_s", [])
        pairs = sweep_size(**SWEEP) * len(sweeps)
        return [
            ("sim_events_per_s", events / sum(samples.get("sim_s", [1])), "events/s", events),
            ("reference_events_per_s", events / sum(samples.get("reference_s", [1])), "events/s", events),
            ("confluence_pairs_per_s", pairs / max(sum(sweeps), 1e-9), "pairs/s", pairs),
        ]


WORKLOADS = {w.name: w for w in (BigSet, LongHistory, PartitionHeal, FuzzSweep)}
