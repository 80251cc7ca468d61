"""The README's examples run, and its directive list names the whole language."""

import re
from pathlib import Path

from ccss import peer, sim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def section(title: str) -> str:
    """The text under a `## ` heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_block(text: str, language: str = "") -> str:
    """The first fenced block in `text` opened with exactly ```<language>."""
    return re.search(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)[1]


def test_readme_scenario_runs_and_passes():
    scenario = sim.parse_scenario(code_block(section("Scenario files")))
    report = sim.run_scenario(scenario, seed=0)
    assert any(isinstance(e, sim.CheckEvent) for e in scenario.events)
    assert report.checks_passed
    assert sim.render_report(report).endswith("CONVERGED true\n")


def test_readme_library_example_runs():
    exec(compile(code_block(README, "python"), "README.md", "exec"), {})


def test_readme_wire_example_round_trips():
    line = code_block(section("Wire format")).strip()
    assert peer.encode_sync_message(peer.parse_sync_message(line)) == line
    assert f"`{peer._MSG_RE.pattern}`" in section("Wire format")


def test_readme_names_every_directive():
    paragraph = re.search(r"^Directives:.*?(?=\n\n)", README, re.M | re.S)[0]
    spans = re.findall(r"`([^`]*)`", paragraph)
    named = {word for span in spans for word in re.findall(r"\b[A-Z]{2,}\b", span)}
    assert named == set(sim._DIRECTIVES)
