import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, load_fixture
from hoarun.cli import main

FIG1A = str(FIXTURES / "fig1a.hoa")
FIG1B = str(FIXTURES / "fig1b.hoa")
BADTRAP = str(FIXTURES / "badtrap.hoa")
UGLY = str(FIXTURES / "ugly.hoa")
MINIMAL = str(FIXTURES / "minimal.hoa")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_reports_properties(capsys):
    assert main(["check", FIG1A]) == 0
    out = capsys.readouterr().out
    assert "states=3" in out
    assert "edges=4" in out
    assert "deterministic=yes" in out
    assert "complete=no" in out
    assert "bsccs=1" in out
    assert "acceptance=Inf(0)" in out


def test_check_parse_failure_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.hoa", "HOA: v1\nState")
    assert main(["check", bad]) == 1
    assert "error" in capsys.readouterr().err


def test_check_multiple_files(capsys):
    assert main(["check", FIG1A, FIG1B]) == 0
    out = capsys.readouterr().out
    assert out.count("states=3") == 2
    assert "complete=yes" in out


# ---------------------------------------------------------------------------
# run


def test_run_zero_steps(capsys):
    assert main(["run", "--steps", "0", "--trace", "/dev/null/none", MINIMAL]) == 1
    capsys.readouterr()


def test_run_steps_zero_with_valid_trace(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n")
    assert main(["run", "--steps", "0", "--trace", trace, MINIMAL]) == 0
    out = capsys.readouterr().out
    assert "STEP" not in out


def test_run_trace_to_bad_verdict(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n0\n1\n")
    code = main(["run", "--trace", trace, "--monitor", BADTRAP])
    out = capsys.readouterr().out
    assert code == 10
    assert out.splitlines() == ["VERDICT bad-sink bad @1"]


def test_run_verbose_step_lines(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n0\n")
    code = main(["run", "--trace", trace, "--verbose", "--monitor", BADTRAP])
    out = capsys.readouterr().out.splitlines()
    assert code == 10
    assert out == [
        "STEP 0 1 | bad-sink:0",
        "VERDICT bad-sink bad @1",
        "STEP 1 0 | bad-sink:1",
    ]


def test_run_ugly_exit_code(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n")
    code = main(["run", "--trace", trace, "--monitor", UGLY])
    capsys.readouterr()
    assert code == 11


def test_run_strict_unknown_exit_code(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n")
    # fig1b stays out of its bottom SCC on p: verdict remains unknown
    code = main(["run", "--trace", trace, "--monitor", "--strict", FIG1B])
    capsys.readouterr()
    assert code == 12
    code = main(["run", "--trace", trace, "--monitor", FIG1B])
    capsys.readouterr()
    assert code == 0


def test_run_monitor_refuses_nondeterministic(capsys):
    nd = str(FIXTURES / "nondeterministic.hoa")
    assert main(["run", "--steps", "1", "--monitor", nd]) == 2
    assert "nondeterministic" in capsys.readouterr().err


def test_run_monitor_incomplete_needs_complete_flag(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n0\n0\n")
    assert main(["run", "--trace", trace, "--monitor", FIG1A]) == 2
    capsys.readouterr()
    assert main(["run", "--trace", trace, "--monitor", "--complete", FIG1A]) == 0
    capsys.readouterr()


def test_run_unhandled_deadlock_exit(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n0\n")
    deadlock = str(FIXTURES / "deadlock.hoa")
    assert main(["run", "--trace", trace, deadlock]) == 4
    assert "deadlock" in capsys.readouterr().err


def test_run_unhandled_nondeterminism_exit(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n")
    nd = str(FIXTURES / "nondeterministic.hoa")
    assert main(["run", "--trace", trace, nd]) == 3
    assert "nondeterminism" in capsys.readouterr().err


def test_run_with_config_hooks_and_random_drivers(tmp_path, capsys):
    config = write(
        tmp_path,
        "run.cfg",
        """
[drivers]
default = random(bias=1.0)

[hooks.stop]
trigger = state:1
action = halt:5

[run]
seed = 1
max_steps = 50
""",
    )
    code = main(["run", "--config", config, BADTRAP])
    capsys.readouterr()
    assert code == 0  # bias 1.0 keeps p true; state 1 never reached
    config2 = write(
        tmp_path,
        "run2.cfg",
        """
[drivers]
default = random(bias=0.0)

[hooks.stop]
trigger = state:1
action = halt:5

[run]
seed = 1
max_steps = 50
""",
    )
    code = main(["run", "--config", config2, BADTRAP])
    capsys.readouterr()
    assert code == 5


def test_run_cond_trigger_on_unknown_proposition_fails_at_load(tmp_path):
    # a header-only trace never evaluates the trigger, so only a check
    # made before the run can catch the unknown name
    config = write(tmp_path, "run.cfg", "[hooks.watch]\ntrigger = cond: q\naction = log:q\n")
    trace = write(tmp_path, "t.trace", "p\n")
    result = subprocess.run(
        [sys.executable, "-m", "hoarun", "run", "--config", config, "--trace", trace, MINIMAL],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "'q'" in result.stderr


def test_run_missing_driver_binding_is_config_error(capsys):
    assert main(["run", "--steps", "1", MINIMAL]) == 1
    assert "no driver" in capsys.readouterr().err


def test_run_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    trace = write(tmp_path, "t.trace", "p\n1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(load_fixture("minimal.hoa")))
    assert main(["run", "--trace", trace, "-"]) == 0
    capsys.readouterr()


def test_run_negated_relabels_good(tmp_path, capsys):
    # a monitor that accepts everything: verdict good at step 0
    aut = write(
        tmp_path,
        "top.hoa",
        "HOA: v1\nname: \"all\"\nStates: 1\nStart: 0\nAP: 1 \"p\"\n"
        "Acceptance: 1 Inf(0)\n--BODY--\nState: 0 {0}\n[t] 0\n--END--\n",
    )
    trace = write(tmp_path, "t.trace", "p\n1\n1\n")
    code = main(["run", "--trace", trace, "--monitor", "--negated", aut])
    out = capsys.readouterr().out
    assert code == 0
    assert "VIOLATION all @0" in out
    capsys.readouterr()
    code = main(["run", "--trace", trace, "--monitor", aut])
    out = capsys.readouterr().out
    assert "VERDICT all good @0" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run"])
    assert exit_info.value.code == 2  # argparse usage failure
    capsys.readouterr()


def test_missing_file_is_reported(capsys):
    assert main(["run", "--steps", "1", "/nonexistent.hoa"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-locks


def test_gen_locks_writes_artifacts(tmp_path, capsys):
    trace_path = tmp_path / "locks.trace"
    monitors_path = tmp_path / "locks.hoa"
    code = main(
        [
            "gen-locks",
            "--n", "2",
            "--len", "50",
            "--violations", "3",
            "--seed", "4",
            "--out-trace", str(trace_path),
            "--out-monitors", str(monitors_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "APs: end a i0 l0"
    assert trace_path.read_text().startswith("end a i0 l0\n")
    from hoarun.hoa import parse

    assert len(parse(monitors_path.read_text()).automata) == 8


def test_gen_locks_rejects_zero_length(tmp_path, capsys):
    code = main(
        [
            "gen-locks",
            "--n", "2",
            "--len", "0",
            "--out-trace", str(tmp_path / "t"),
            "--out-monitors", str(tmp_path / "m"),
        ]
    )
    assert code == 1
    assert "length" in capsys.readouterr().err


def test_gen_locks_then_run_counts_violations(tmp_path, capsys):
    trace_path = str(tmp_path / "locks.trace")
    monitors_path = str(tmp_path / "locks.hoa")
    main(
        [
            "gen-locks",
            "--n", "2",
            "--len", "200",
            "--violations", "2",
            "--seed", "8",
            "--out-trace", trace_path,
            "--out-monitors", monitors_path,
        ]
    )
    capsys.readouterr()
    config = write(
        tmp_path,
        "locks.cfg",
        "[hooks.reset]\ntrigger = verdict:conclusive\naction = reset\n",
    )
    code = main(
        ["run", "--trace", trace_path, "--config", config, "--monitor", "--negated", monitors_path]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len([line for line in out.splitlines() if line.startswith("VIOLATION")]) == 2


# ---------------------------------------------------------------------------
# determinism of the whole CLI surface


def _cli_bytes(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "hoarun", *args],
        capture_output=True,
        cwd=str(tmp_path),
    )


def test_interactive_session_end_to_end(tmp_path):
    config = write(
        tmp_path,
        "run.cfg",
        "[drivers]\ndefault = interactive\n\n[run]\nmax_steps = 2\n",
    )
    result = subprocess.run(
        [sys.executable, "-m", "hoarun", "run", "--config", config, "--monitor", BADTRAP],
        input=b"1\n0\n",
        capture_output=True,
    )
    assert result.returncode == 10
    assert b"VERDICT bad-sink bad @1" in result.stdout
    assert b"p (0/1/t/f/true/false)?" in result.stderr


def test_interactive_stream_closing_is_an_error(tmp_path):
    config = write(tmp_path, "run.cfg", "[drivers]\ndefault = interactive\n")
    result = subprocess.run(
        [sys.executable, "-m", "hoarun", "run", "--config", config, BADTRAP],
        input=b"1\n",
        capture_output=True,
    )
    assert result.returncode == 1
    assert b"interactive input stream closed" in result.stderr


def test_stdout_bytes_identical_across_runs(tmp_path):
    trace = write(tmp_path, "t.trace", "p\n1\n0\n1\n0\n")
    args = ["run", "--trace", trace, "--monitor", "--verbose", "--seed", "3", BADTRAP]
    first = _cli_bytes(args, tmp_path)
    second = _cli_bytes(args, tmp_path)
    assert first.returncode == second.returncode == 10
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


def test_perfbench_tracer_smoke(tmp_path):
    # the benchmark's per-layer mode wraps these names in hoarun.cli,
    # hoarun.monitoring and hoarun.runtime; a renamed one breaks it
    wrapped = {
        "hoa.parse", "monitoring.attach", "runtime.prepare_runners",
        "runtime.resolve_bindings", "automata.is_deterministic",
        "automata.is_complete", "traps.build_index", "traps.min_trap_set_of",
        "traps.is_transient", "monitoring.condition_verdict",
        "runtime.collect_valuation", "runtime.step", "monitoring.observe",
        "cli.on_event", "runtime.run_loop",
    }
    trace, monitors = str(tmp_path / "l.trace"), str(tmp_path / "l.hoa")
    assert main(["gen-locks", "--n", "2", "--len", "200", "--violations", "1",
                 "--out-trace", trace, "--out-monitors", monitors]) == 0
    args = ["run", "--trace", trace, "--monitor", "--negated", monitors]
    plain = subprocess.run([sys.executable, "-m", "hoarun", *args], capture_output=True)
    child = Path(__file__).parent.parent / "perfbench" / "child.py"
    out = tmp_path / "out"
    traced = subprocess.run(
        [sys.executable, str(child), "trace", str(out), *args], capture_output=True
    )
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    aggregates = json.loads((tmp_path / "out.json").read_text())["aggregates"]
    assert wrapped <= set(aggregates)
    assert aggregates["monitoring.observe"]["calls"] > 0
