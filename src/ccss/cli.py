"""Command line front end: run scenarios, check confluence, fuzz workloads.

Exit codes are uniform across subcommands: 0 for success, 1 for a failed
check or detected divergence, 2 for unusable input.  When the environment
variable CCSS_REPORT_DIR is set, report and scenario dumps are written into
that directory instead of the given path's location.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import conformance, sim
from .core import CcssError, render_element_set

REPORT_DIR_VAR = "CCSS_REPORT_DIR"


def _write_output(path: str, text: str) -> str:
    """Write `text` to `path`, or into CCSS_REPORT_DIR when set; returns where."""
    override = os.environ.get(REPORT_DIR_VAR)
    if override:
        os.makedirs(override, exist_ok=True)
        path = os.path.join(override, os.path.basename(path))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as handle:
            scenario = sim.parse_scenario(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    except sim.ScenarioError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    try:
        report = sim.run_scenario(scenario, seed=0)
    except CcssError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    text = sim.render_report(report)
    print(text, end="")
    if args.report:
        try:
            _write_output(args.report, text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2

    failed = [c for c in report.checks if not c.passed]
    for check in failed:
        print(
            f"CHECK failed at event {check.event_index}: {check.peer} "
            f"expected {render_element_set(check.expected)} "
            f"got {render_element_set(check.actual)}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    for ok, message in (
        (1 <= args.universe <= 5, "--universe must be between 1 and 5"),
        (0 <= args.max_len <= 4, "--max-len must be between 0 and 4"),
        (
            0 <= args.base_bits <= args.universe,
            "--base-bits must be between 0 and --universe",
        ),
    ):
        if not ok:
            print(message, file=sys.stderr)
            return 2

    elements = tuple(range(1, args.universe + 1))
    checked = 0
    failures = []
    for mask in range(1 << args.base_bits):
        base = frozenset(
            elements[i] for i in range(args.base_bits) if mask & (1 << i)
        )
        report = conformance.check_confluence(
            conformance.Universe(elements, base), args.max_len
        )
        checked += report.checked
        failures.extend(report.failures)

    print(f"checked={checked} failures={len(failures)}")
    for failure in failures[:20]:
        print(f"counterexample: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    for ok, message in (
        (args.peers >= 2, "--peers must be at least 2"),
        (args.universe >= 1, "--universe must be at least 1"),
        (args.seeds >= 1, "--seeds must be at least 1"),
        (args.ops >= 0, "--ops must be at least 0"),
        (0 <= args.density <= 1, "--density must be between 0 and 1"),
    ):
        if not ok:
            print(message, file=sys.stderr)
            return 2
    failures = 0
    for seed in range(1, args.seeds + 1):
        scenario = sim.random_workload(
            peers=args.peers,
            universe_size=args.universe,
            ops_per_peer=args.ops,
            sync_density=args.density,
            seed=seed,
        )
        # A seed fails when its peers do not converge, when the library
        # raises, or when the independent replay ends elsewhere.
        try:
            report = sim.run_scenario(scenario, seed)
            failed = not report.convergence
            detail = ""
            if not failed and sim.reference_run(scenario) != report.final_states:
                failed = True
                detail = " (differs from reference_run)"
        except CcssError as exc:
            failed = True
            detail = f" ({exc})"
        if failed:
            failures += 1
            text = sim.render_scenario(scenario)
            try:
                dump = _write_output(f"fuzz-fail-seed{seed}.scenario", text)
            except OSError as exc:
                print(f"seed {seed}: cannot dump scenario: {exc}", file=sys.stderr)
                return 2
            print(f"seed {seed}: FAILED{detail}, scenario dumped to {dump}")
    print(f"seeds={args.seeds} failed={failures}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccss",
        description="Replicated sets with insert and delete that merge without conflict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario", help="path to a scenario file")
    run_parser.add_argument("--report", help="also write the report to this path")
    run_parser.set_defaults(func=_cmd_run)

    conf_parser = sub.add_parser(
        "conformance", help="exhaustively check merge confluence"
    )
    conf_parser.add_argument("--universe", type=int, default=3)
    conf_parser.add_argument("--base-bits", type=int, default=2)
    conf_parser.add_argument("--max-len", type=int, default=2)
    conf_parser.set_defaults(func=_cmd_conformance)

    fuzz_parser = sub.add_parser("fuzz", help="run seeded random workloads")
    fuzz_parser.add_argument("--peers", type=int, default=3)
    fuzz_parser.add_argument("--ops", type=int, default=20)
    fuzz_parser.add_argument("--seeds", type=int, default=100)
    fuzz_parser.add_argument("--universe", type=int, default=6)
    fuzz_parser.add_argument("--density", type=float, default=0.2)
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
