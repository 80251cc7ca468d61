"""Tests of the benchmark itself: short runs complete, checks reject wrong answers.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from ccss import peer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_completes_and_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]()
    raw = run.run(workload, seed=3, seconds=0)
    assert raw["episodes"] == 1
    assert raw["attempted"] > 0 and raw["failed"] == 0, raw["problems"]
    assert sum(raw["setup_s"]) >= run.SETUP_MIN_S
    metrics = run.end_to_end(raw)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())
    assert workload.figures(raw["samples"])


def test_traced_run_reports_every_layer_and_restores_the_modules():
    local_update = peer.local_update
    tracer = spans.Tracer()
    raw = run.run(workloads.FuzzSweep(), seed=3, seconds=0, tracer=tracer)
    assert raw["busy"][True][1] == 1 and raw["failed"] == 0
    # The traced episode sets up once, so its layers count one set-up.
    assert tracer.calls["sim.random_workload"] == workloads.FuzzSweep.scenarios
    metrics = tracer.layer_metrics(1, run.overhead_pct(raw))
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for name in ("sim.run_scenario.events", "peer.split_message.segments", "cli.main.self_s"):
        assert metrics[name]["value"] > 0
    assert peer.local_update is local_update
    # Every kept span's parent is kept too, and it ends after it starts.
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] == 0 or span[1] in ids for span in tracer.spans)
    assert all(span[3] <= span[4] for span in tracer.spans)


def test_inputs_depend_only_on_the_seed():
    for workload in (workloads.BigSet(), workloads.PartitionHeal()):
        # Everything but the replicas, which are the last item.
        assert workload.setup(5)[:-1] == workload.setup(5)[:-1]
        assert workload.setup(5)[:-1] != workload.setup(6)[:-1]


def test_quantile_takes_the_nearest_rank():
    assert workloads.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert workloads.quantile([3.0, 1.0, 2.0], 0.9) == 3.0
    assert workloads.quantile([float(i) for i in range(1, 101)], 0.9) == 90.0
    assert workloads.quantile([5.0], 0.99) == 5.0


def flip(members: frozenset) -> frozenset:
    """The same set with one element removed."""
    return members - {min(members)}


def test_big_set_check_rejects_a_flipped_element():
    workload = workloads.BigSet()
    state = workload.setup(1)
    initial, intents, _ = state
    right = workloads.expected_set(initial, [(i, x) for _, i, x in intents])
    assert workload.check(state, [right, right, right]) is None
    assert workload.check(state, [right, flip(right), right]) is not None


def test_long_history_check_rejects_divergence_and_a_flipped_element():
    reference = {"P1": frozenset({1, 2}), "P2": frozenset({1, 2})}
    assert workloads.check_reference(dict(reference), reference) is None
    wrong = {"P1": frozenset({2}), "P2": frozenset({2})}
    assert workloads.check_reference(wrong, reference) is not None
    split = {"P1": frozenset({1, 2}), "P2": frozenset({2})}
    assert workloads.check_reference(split, reference) is not None


def test_partition_heal_expectation_honours_deletes_and_keeps_inserts():
    base = frozenset({1, 2, 3})
    side_a = [("delete", 1), ("insert", 4)]
    side_b = [("delete", 1), ("delete", 2), ("insert", 2), ("insert", 5)]
    assert workloads.healed_set(base, side_a, side_b) == {2, 3, 4, 5}
    workload = workloads.PartitionHeal()
    state = workload.setup(1)
    right = [workloads.healed_set(start, *plans) for start, plans in state[0]]
    heals = [{"A": members, "B": members} for members in right]
    assert workload.check(state, heals) is None
    wrong = heals[:-1] + [{"A": right[-1], "B": flip(right[-1])}]
    assert workload.check(state, wrong) is not None
    assert workload.check(state, heals[:-1]) is not None


def test_sweep_check_rejects_a_count_off_by_one_or_a_failure():
    expected = workloads.sweep_size(universe=3, base_bits=2, max_len=3)
    assert expected == 6400
    assert workloads.check_sweep(0, f"checked={expected} failures=0\n", expected) is None
    assert workloads.check_sweep(0, f"checked={expected - 1} failures=0\n", expected)
    assert workloads.check_sweep(1, f"checked={expected} failures=1\n", expected)
    assert workloads.check_sweep(0, "", expected)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "fuzz-sweep"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
