"""Benchmark of the ccss replicated-set library, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload big-set --seed 1 --seconds 20 --trace 0

A run repeats one fixed episode of its workload, built afresh from the seed
each time, until `--seconds` have passed, then checks every episode's outputs.
With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` episodes alternate between
untraced and traced, and the object holds the per-layer metrics of the
traced ones plus the tracing overhead.  Earlier lines give reference
figures that are not metrics: the host-speed probe and the workload's own
figures (update and sync latency, catch-up time, wire bytes, oracle rates).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# Set-up time gathered per untraced episode: a run of several episodes then
# takes `setup_s` from a second or more of set-ups, not from one short call.
SETUP_MIN_S = 0.2


def load_program() -> None:
    """Import ccss from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ccss
    except ImportError as exc:
        raise SystemExit(f"cannot import ccss from {SRC}: {exc}")
    if Path(ccss.__file__).resolve().parent != SRC / "ccss":
        raise SystemExit(f"ccss imported from {ccss.__file__}, not from {SRC}")


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that runs no ccss code."""
    t0 = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return perf_counter() - t0


def run(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Repeat whole episodes until `seconds` have passed; returns raw figures.

    With a tracer, odd episodes run traced and even ones untraced, so that
    the overhead compares episodes made side by side.  Only untraced
    episodes feed the end-to-end figures.  An untraced episode repeats its
    set-up until `SETUP_MIN_S` have passed and keeps the last; a traced one
    sets up once, so its per-layer figures count one set-up per episode.
    """
    from workloads import Episode

    setup_s: list[float] = []
    per_episode: list[list[float]] = []  # op latencies, one list per episode
    samples: dict[str, list[float]] = {}
    busy = {False: [0.0, 0], True: [0.0, 0]}  # traced -> [seconds, episodes]
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    last = 0.0  # length of the previous episode
    episode = 0
    state = ep = None
    # Stop before an episode that would likely overrun the run's length.
    while episode < (2 if tracer else 1) or perf_counter() - start + last <= seconds:
        traced = tracer is not None and episode % 2 == 1
        episode += 1
        # Drop the previous episode before the next set-up, so that the
        # peak memory holds one episode's replicas.
        state = ep = None
        gc.collect()
        began = perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            spent = 0.0
            while state is None or (not traced and spent < SETUP_MIN_S):
                state = None
                t0 = perf_counter()
                state = workload.setup(seed)
                setup_s.append(perf_counter() - t0)
                spent += setup_s[-1]
            ep = Episode(ops=workload.ops(state))
            try:
                workload.episode(state, ep)
                problem = None
            except Exception as exc:  # a failed operation is counted, not fatal
                problem = f"{type(exc).__name__}: {exc}"
        last = perf_counter() - began
        if problem is None:
            try:
                problem = workload.check(state, ep.outputs)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        attempted += ep.ops
        if problem is not None:
            failed += ep.ops
            problems.append(f"episode {episode}: {problem}")
            continue
        busy[traced][0] += sum(ep.op_s)
        busy[traced][1] += 1
        if not traced:
            per_episode.append(ep.op_s)
            for key, values in ep.samples.items():
                samples.setdefault(key, []).extend(values)
    return {
        "episodes": episode,
        "setup_s": setup_s,
        "per_episode": per_episode,
        "samples": samples,
        "busy": busy,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def end_to_end(raw: dict) -> dict:
    """Each timed figure is taken per episode, then the median over episodes.

    Episodes repeat identical inputs, so they differ only by the host's
    speed at the time; the median drops the episodes a slow spell hit.
    """
    from workloads import quantile

    episodes = raw["per_episode"] or [[0.0]]

    def over_episodes(figure) -> float:
        return statistics.median(figure(op_s) for op_s in episodes)

    values = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "ops_per_s": (over_episodes(lambda op_s: len(op_s) / (sum(op_s) or 1.0)), "ops/s"),
        "op_p50_ms": (over_episodes(lambda op_s: quantile(op_s, 0.5)) * 1e3, "ms"),
        "op_p90_ms": (over_episodes(lambda op_s: quantile(op_s, 0.9)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def overhead_pct(raw: dict) -> float:
    (plain_s, plain_n), (traced_s, traced_n) = raw["busy"][False], raw["busy"][True]
    if not (plain_n and traced_n and plain_s):
        return 0.0
    return 100.0 * ((traced_s / traced_n) / (plain_s / plain_n) - 1.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None

    probe_before = host_probe()
    raw = run(workload, args.seed, args.seconds, tracer)
    probe_after = host_probe()

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} episodes={raw['episodes']} "
        f"attempted={raw['attempted']} failed={raw['failed']}"
    )
    print(f"reference host_probe_s before={probe_before:.4f} after={probe_after:.4f}")
    for problem in raw["problems"][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not args.trace:
        for name, value, unit, n in workload.figures(raw["samples"]):
            print(f"reference {name}={value:.6g} {unit} n={n}")
        metrics = end_to_end(raw)
    else:
        traced_episodes = raw["busy"][True][1]
        metrics = tracer.layer_metrics(traced_episodes, overhead_pct(raw))
        for layer, calls in sorted(tracer.calls.items()):
            print(f"reference calls {layer}={calls / max(traced_episodes, 1):.6g} per episode")
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if tracer.spans_dropped:
            print(f"reference spans kept={len(tracer.spans)} dropped={tracer.spans_dropped}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
