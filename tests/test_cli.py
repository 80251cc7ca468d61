"""Command line behavior: exit codes, reports, env overrides, fuzz dumps."""

import pytest

from ccss import cli, core, peer, sim

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


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "reconnect.scenario"
    path.write_text(RECONNECT, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# run


def test_run_passes_on_good_checks(scenario_file, capsys):
    assert cli.main(["run", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "FINAL P {1,3}" in out
    assert "CONVERGED true" in out


def test_run_fails_on_wrong_check(tmp_path, capsys):
    path = tmp_path / "wrong.scenario"
    path.write_text(RECONNECT.replace("CHECK P {1,3}", "CHECK P {1,2}"))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "expected {1,2}" in err and "got {1,3}" in err


def test_run_rejects_unparsable_input(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("PEER P {1}\nBOUNCE P\n")
    assert cli.main(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err

    empty = tmp_path / "empty.scenario"
    empty.write_text("")
    assert cli.main(["run", str(empty)]) == 2

    # A cycle of links is refused on the LINK line that closes it.
    triangle = tmp_path / "triangle.scenario"
    triangle.write_text(
        "PEER A {}\nPEER B {}\nPEER C {}\nLINK A B\nLINK B C\nLINK A C\n"
        "OP A insert 1\nOP B insert 1\nSYNC A B\nSYNC B C\nSYNC C A\n"
    )
    capsys.readouterr()
    assert cli.main(["run", str(triangle)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 6:")

    assert cli.main(["run", str(tmp_path / "missing.scenario")]) == 2

    binary = tmp_path / "binary.scenario"
    binary.write_bytes(b"PEER P {\xff}\n")
    assert cli.main(["run", str(binary)]) == 2

    # An element the wire would split into two is refused, not run.
    comma = tmp_path / "comma.scenario"
    comma.write_text("PEER P {1}\nPEER Q {1}\nLINK P Q\nOP P insert a,b\nSYNC P Q\n")
    capsys.readouterr()
    assert cli.main(["run", str(comma)]) == 2
    assert capsys.readouterr().err.startswith("parse error: line 4:")


# A triple 1200 levels deep, more than the interpreter's stack allows.
DEEP_TRIPLE = "(" * 1200 + "a" + ",k,1)" * 1200


@pytest.mark.parametrize(
    "text",
    [
        # `(a,k,1)x` is neither a plain token nor a triple.
        "PEER P {((a,k,1)x,k,1),(b,k,2)}\nRESOLVE P\n",
        "PEER P {" + DEEP_TRIPLE + "}\n",
    ],
    ids=["unbalanced-triple", "deep-triple"],
)
def test_run_refuses_bad_elements_in_one_line(text, tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 1: ")
    assert captured.err.count("\n") == 1


def test_run_writes_report_file(scenario_file, tmp_path, capsys):
    report = tmp_path / "out" / "report.txt"
    report.parent.mkdir()
    assert cli.main(["run", scenario_file, "--report", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out


def test_run_rejects_unwritable_report_path(scenario_file, tmp_path, capsys):
    missing = tmp_path / "missing" / "out.txt"
    assert cli.main(["run", scenario_file, "--report", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write report:")
    assert err.count("\n") == 1


def test_run_names_the_failing_event(scenario_file, monkeypatch, capsys):
    def broken(replica, msg):
        raise core.InvalidInsert("3 already present")

    monkeypatch.setattr(peer, "handle_sync", broken)
    assert cli.main(["run", scenario_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "InvalidInsert: event 6 (SYNC P Q): 3 already present\n"


def test_report_dir_override(scenario_file, tmp_path, monkeypatch, capsys):
    override = tmp_path / "reports"
    monkeypatch.setenv("CCSS_REPORT_DIR", str(override))
    assert cli.main(["run", scenario_file, "--report", "report.txt"]) == 0
    assert (override / "report.txt").read_text() == capsys.readouterr().out


# ---------------------------------------------------------------------------
# conformance


def test_conformance_default_sweep_clean(capsys):
    assert cli.main(["conformance", "--universe", "3", "--max-len", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("checked=")
    assert "failures=0" in out


def test_conformance_guard_rails(capsys):
    for argv, message in (
        (["--universe", "6"], "--universe must be between 1 and 5"),
        (["--max-len", "5"], "--max-len must be between 0 and 4"),
        (
            ["--universe", "2", "--base-bits", "3"],
            "--base-bits must be between 0 and --universe",
        ),
    ):
        assert cli.main(["conformance", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


def test_conformance_catches_broken_transform(monkeypatch, capsys):
    # Sabotaged transform: remote duplicates pass through unsuppressed.
    monkeypatch.setattr(core, "transform_remote", lambda local, remote: remote)
    assert cli.main(["conformance", "--universe", "2", "--max-len", "2"]) == 1
    captured = capsys.readouterr()
    assert "failures=0" not in captured.out
    assert "counterexample" in captured.err


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_small_clean(capsys):
    assert cli.main(["fuzz", "--peers", "2", "--ops", "0", "--seeds", "10"]) == 0
    assert "seeds=10 failed=0" in capsys.readouterr().out


def test_fuzz_standard_run(capsys):
    assert cli.main(["fuzz", "--peers", "3", "--ops", "20", "--seeds", "25"]) == 0
    assert "failed=0" in capsys.readouterr().out


def test_fuzz_rejects_single_peer(capsys):
    assert cli.main(["fuzz", "--peers", "1"]) == 2


@pytest.mark.parametrize("universe", ["0", "-3"])
def test_fuzz_rejects_empty_universe(universe, capsys):
    assert cli.main(["fuzz", "--universe", universe]) == 2
    assert capsys.readouterr().err == "--universe must be at least 1\n"


FUZZ_LIMITS = {
    "--seeds": "at least 1",
    "--ops": "at least 0",
    "--density": "between 0 and 1",
}


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seeds", "0"),
        ("--seeds", "-3"),
        ("--ops", "-3"),
        ("--density", "-1"),
        ("--density", "7"),
        ("--density", "nan"),
    ],
)
def test_fuzz_rejects_out_of_range_input(flag, value, capsys):
    # A run that would test nothing must not report a pass.
    assert cli.main(["fuzz", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{flag} must be {FUZZ_LIMITS[flag]}\n"
    assert captured.out == ""


def test_fuzz_dump_into_a_plain_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, "reference_run", lambda scenario: {})
    blocker = tmp_path / "reports"
    blocker.write_text("not a directory")
    monkeypatch.setenv("CCSS_REPORT_DIR", str(blocker))
    assert cli.main(["fuzz", "--peers", "2", "--ops", "3", "--seeds", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("seed 1: cannot dump scenario: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


def test_fuzz_dump_is_rerunnable(tmp_path, monkeypatch, capsys):
    # Forced failure: ops after the last sync leave the peers apart.
    divergent = sim.Scenario(
        peers=(("P1", frozenset()), ("P2", frozenset())),
        links=(("P1", "P2"),),
        events=(sim.OpEvent("P1", "insert", 1),),
    )
    monkeypatch.setattr(sim, "random_workload", lambda **kwargs: divergent)
    monkeypatch.setenv("CCSS_REPORT_DIR", str(tmp_path))
    assert cli.main(["fuzz", "--peers", "2", "--ops", "1", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "seed 1: FAILED" in out

    dump = tmp_path / "fuzz-fail-seed1.scenario"
    assert dump.exists()
    # Re-running the dump reproduces the same final states byte for byte.
    assert cli.main(["run", str(dump)]) == 0
    rerun_out = capsys.readouterr().out
    report = sim.run_scenario(divergent, seed=0)
    assert rerun_out == sim.render_report(report)
    assert "CONVERGED false" in rerun_out


def test_run_has_no_seed_option(tmp_path):
    path = tmp_path / "s.scenario"
    path.write_text("PEER P {}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(path), "--seed", "1"])
    assert exc.value.code == 2


def _raise_invalid_insert(scenario, seed):
    raise core.ineffective(core.Op.insert(1))


@pytest.mark.parametrize(
    "call, fake, detail",
    [
        ("reference_run", lambda scenario: {}, "differs from reference_run"),
        ("run_scenario", _raise_invalid_insert, "1 already present"),
    ],
    ids=["replay-disagrees", "run-raises"],
)
def test_fuzz_fails_a_bad_seed(call, fake, detail, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sim, call, fake)
    monkeypatch.setenv("CCSS_REPORT_DIR", str(tmp_path))
    assert cli.main(["fuzz", "--peers", "2", "--ops", "3", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert f"seed 1: FAILED ({detail}), scenario dumped" in out
    assert "seeds=1 failed=1" in out
    dump = tmp_path / "fuzz-fail-seed1.scenario"
    scenario = sim.random_workload(
        peers=2, universe_size=6, ops_per_peer=3, sync_density=0.2, seed=1
    )
    assert dump.read_text() == sim.render_scenario(scenario)


def test_entry_point_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
