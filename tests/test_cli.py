import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from conftest import FIXTURES, load_fixture
from hoarun.automata import Compiled
from hoarun.cli import main
from hoarun.hoa import parse
from hoarun.labels import Diagrams, Valuation, evaluate

FIG1A = str(FIXTURES / "fig1a.hoa")
FIG1B = str(FIXTURES / "fig1b.hoa")
BADTRAP = str(FIXTURES / "badtrap.hoa")
UGLY = str(FIXTURES / "ugly.hoa")
MINIMAL = str(FIXTURES / "minimal.hoa")
WIDE = str(FIXTURES / "wide.hoa")


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


def test_check_compiles_every_document_in_one_store(monkeypatch, capsys):
    # two documents, three automata: one decision-diagram store for them all
    stores, made = [], []
    real_store, real_compiled = Diagrams.__init__, Compiled.__init__

    def store_init(self):
        stores.append(self)
        real_store(self)

    def compiled_init(self, automaton, store=None):
        real_compiled(self, automaton, store)
        made.append(self)

    monkeypatch.setattr(Diagrams, "__init__", store_init)
    monkeypatch.setattr(Compiled, "__init__", compiled_init)
    assert main(["check", str(FIXTURES / "multi.hoa"), FIG1A]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(made) == 3
    assert len(stores) == 1
    assert all(compiled.diagrams is stores[0] for compiled in made)


def test_check_output_is_pinned(tmp_path, monkeypatch, capsys):
    # every fixture, the 20-proposition one included, and the n=4 lock
    # monitors, byte for byte as check prints them under relative paths
    assert main(["gen-locks", "--n", "4", "--len", "10", "--seed", "1",
                 "--out-trace", str(tmp_path / "locks4.trace"),
                 "--out-monitors", str(tmp_path / "locks4.hoa")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(FIXTURES)
    assert main(["check", *sorted(p.name for p in FIXTURES.glob("*.hoa"))]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["check", "locks4.hoa"]) == 0
    assert capsys.readouterr().out == (FIXTURES / "check.golden").read_text()


def _run_locks_output(tmp_path, capsys, n, length):
    """Every STEP and VIOLATION line of the n-thread lock monitors on a
    gen-locks trace with 3 faults, reset on each conclusive verdict, then
    the exit code."""
    trace, monitors = str(tmp_path / "locks.trace"), str(tmp_path / "locks.hoa")
    assert main(["gen-locks", "--n", str(n), "--len", str(length), "--violations", "3",
                 "--seed", "1", "--out-trace", trace, "--out-monitors", monitors]) == 0
    capsys.readouterr()
    config = write(
        tmp_path, "reset.cfg", "[hooks.reset]\ntrigger = verdict: conclusive\naction = reset\n"
    )
    code = main(["run", monitors, "--trace", trace, "--config", config,
                 "--monitor", "--negated", "--verbose"])
    return capsys.readouterr().out + f"exit {code}\n"


def test_run_output_is_pinned(tmp_path, capsys):
    # the n=2 lock monitors on 100 events
    out = _run_locks_output(tmp_path, capsys, 2, 100)
    assert out == (FIXTURES / "run_locks_n2.golden").read_text()


def test_run_output_is_pinned_for_128_monitors(tmp_path, capsys):
    # the n=8 lock monitors on 200 events: most of them rest at any one
    # step, idle or holding their lock
    out = _run_locks_output(tmp_path, capsys, 8, 200)
    assert out == (FIXTURES / "run_locks_n8.golden").read_text()


def _wide_trace(tmp_path) -> str:
    # most pairs have a true proposition, so the label holds on about two
    # rows in three
    rng = Random(5)
    rows = [" ".join("1" if rng.random() < 0.8 else "0" for _ in range(20)) for _ in range(40)]
    header = " ".join(f"p{i}" for i in range(20))
    return write(tmp_path, "wide.trace", "\n".join([header, *rows]) + "\n")


def test_wide_labels_past_the_check_cap(tmp_path, capsys):
    # `(0|1) & (2|3) & ... & (18|19)` over 20 propositions has 2**10
    # cubes: check reports the 16-proposition cap, a plain run steps it,
    # a monitored run is refused at load
    assert main(["check", WIDE]) == 0
    assert "deterministic=capacity-exceeded complete=capacity-exceeded" in capsys.readouterr().out
    trace = _wide_trace(tmp_path)
    assert main(["run", "--trace", trace, "--verbose", WIDE]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = Path(trace).read_text().splitlines()[1:]
    (automaton,) = parse(load_fixture("wide.hoa")).automata
    label = automaton.transitions[0].label
    state, visited = 0, set()
    assert len(lines) == len(rows)
    for step, (line, row) in enumerate(zip(lines, rows)):
        bits = row.replace(" ", "")
        # the label moves the runner to the other state, its negation keeps it
        if evaluate(label, Valuation(int(bits[::-1], 2), 20)):
            state = 1 - state
        visited.add(state)
        assert line == f"STEP {step} {bits} | wide:{state}"
    assert visited == {0, 1}
    assert main(["run", "--trace", trace, "--monitor", WIDE]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: check would enumerate 20 propositions (cap 16)\n"


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


def test_run_negative_step_bound_is_an_error(tmp_path, capsys):
    trace = write(tmp_path, "t.trace", "p\n1\n")
    config = write(tmp_path, "t.cfg", "[run]\nmax_steps = -3\n")
    for bound in (["--steps", "-3"], ["--config", config]):
        assert main(["run", *bound, "--trace", trace, MINIMAL]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "negative" in captured.err


def test_run_trace_paces_automata_without_propositions(tmp_path, capsys):
    # one record per step, and the run ends where the trace ends, whether
    # --trace or the config's default driver names the trace
    trace = write(tmp_path, "t.trace", "x y\n0 1\n1 1\n# c\n0 0\n")
    config = write(tmp_path, "t.cfg", f"[drivers]\ndefault = file:{trace}\n")
    noap = str(FIXTURES / "noapfile.hoa")
    for source in (["--trace", trace], ["--config", config]):
        assert main(["run", *source, "--steps", "10", "--verbose", noap]) == 0
        assert capsys.readouterr().out == "STEP 0  | 0:0\nSTEP 1  | 0:0\nSTEP 2  | 0:0\n"


def test_run_config_default_trace_paces_fully_bound_automata(tmp_path, capsys):
    # every proposition has its own driver; the default's trace still
    # gives one record per step and ends the run
    trace = write(tmp_path, "t.trace", "x\n0\n1\n1\n")
    config = write(tmp_path, "t.cfg", f"[drivers]\np = random()\ndefault = file:{trace}\n")
    assert main(["run", "--config", config, "--steps", "50", "--verbose", MINIMAL]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [["STEP", "0"], ["STEP", "1"], ["STEP", "2"]]


def test_run_trace_is_the_config_default_driver(tmp_path, capsys):
    # --trace T is shorthand for a config whose default driver is file:T
    trace, monitors = str(tmp_path / "l.trace"), str(tmp_path / "l.hoa")
    assert main(["gen-locks", "--n", "2", "--len", "2000", "--violations", "3",
                 "--out-trace", trace, "--out-monitors", monitors]) == 0
    capsys.readouterr()
    hook = "[hooks.reset]\ntrigger = verdict:conclusive\naction = reset\n"
    hooks = write(tmp_path, "hooks.cfg", hook)
    default = write(tmp_path, "default.cfg", f"[drivers]\ndefault = file:{trace}\n\n{hook}")
    runs = []
    for args in (["--trace", trace, "--config", hooks], ["--config", default]):
        code = main(["run", *args, "--monitor", "--negated", monitors])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][1].count("VIOLATION") == 3


def test_run_bad_trace_without_propositions_is_an_error(tmp_path, capsys):
    noap = str(FIXTURES / "noapfile.hoa")
    for trace in (str(tmp_path / "missing.trace"), write(tmp_path, "h.trace", "# none\n")):
        config = write(tmp_path, "t.cfg", f"[drivers]\ndefault = file:{trace}\n")
        for source in (["--trace", trace], ["--config", config]):
            assert main(["run", *source, "--steps", "10", noap]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_run_that_nothing_ends_is_an_error(tmp_path):
    # no proposition to read, no trace and no step bound: the run would
    # never end, so it is refused at load; each run is a child with a
    # timeout, so a regression fails instead of hanging
    noap = str(FIXTURES / "noapfile.hoa")
    hooks = write(tmp_path, "hooks.cfg", "[hooks.note]\ntrigger = cond: t\naction = log:x\n")
    random = write(tmp_path, "random.cfg", "[drivers]\ndefault = random()\n")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "hoarun", "run", *args, "--monitor", noap],
            capture_output=True,
            text=True,
            timeout=30,
        )

    for config in ([], ["--config", hooks], ["--config", random]):
        result = run(*config)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    result = run("--steps", "3", "--verbose")
    assert result.returncode == 0
    assert result.stdout.count("STEP") == 3


def test_run_trace_not_utf8_is_an_error(tmp_path, capsys):
    # the bad byte sits in the header, or far enough in to be read mid-run
    for records in (0, 5000):
        path = tmp_path / f"bad{records}.trace"
        path.write_bytes(b"p\n" + b"1\n" * records + b"\xff\n")
        assert main(["run", "--trace", str(path), MINIMAL]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "UTF-8" in err


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


def test_run_monitor_only_flags_need_monitor(tmp_path, capsys):
    # without --monitor, --complete would be ignored and the run would
    # deadlock at step 1; each flag is refused before any automaton is read
    trace = write(tmp_path, "t.trace", "p\n1\n0\n0\n")
    deadlock = str(FIXTURES / "deadlock.hoa")
    for flag in ("--complete", "--strict", "--negated"):
        for automaton in (deadlock, str(tmp_path / "missing.hoa")):
            assert main(["run", "--trace", trace, flag, automaton]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} applies only with --monitor\n"
    assert main(["run", "--trace", trace, "--monitor", "--complete", deadlock]) == 0
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


def test_run_log_template_with_a_bad_field_logs_it_as_written(tmp_path, capsys):
    # an attribute or an index of a placeholder cannot be formatted, so the
    # template is logged as it is, as for an unknown placeholder
    trace = write(tmp_path, "t.trace", "p\n1\n0\n1\n")
    allaccept = str(FIXTURES / "allaccept.hoa")
    for template in ("{step.foo}", "{step[0]}"):
        hook = f"[hooks.note]\ntrigger = cond: t\naction = log:{template}\n"
        config = write(tmp_path, "t.cfg", hook)
        assert main(["run", "--config", config, "--trace", trace, allaccept]) == 0
        assert capsys.readouterr().out == f"LOG {template}\n" * 3


def test_run_hook_state_ids_are_those_of_the_hoa_text(tmp_path, capsys):
    # no States: header, so the ids 5 and 7 are numbered 0 and 1 inside;
    # state: and goto: name them as STEP lines and {state} show them
    hoa = write(
        tmp_path,
        "a.hoa",
        "HOA: v1\nAP: 1 \"p\"\nStart: 5\nAcceptance: 0 t\n--BODY--\n"
        "State: 5\n[0] 7\n[!0] 5\nState: 7\n[t] 7\n--END--\n",
    )
    trace = write(tmp_path, "t.trace", "p\n0\n1\n0\n")
    hook = "[hooks.at]\ntrigger = state:{}\naction = {}\n"
    config = write(tmp_path, "at.cfg", hook.format(7, "log:at {state}"))
    assert main(["run", "--config", config, "--trace", trace, "--verbose", hoa]) == 0
    assert capsys.readouterr().out == (
        "STEP 0 0 | 0:5\nLOG at 7\nSTEP 1 1 | 0:7\nLOG at 7\nSTEP 2 0 | 0:7\n"
    )
    config = write(tmp_path, "back.cfg", hook.format(7, "goto:5"))
    assert main(["run", "--config", config, "--trace", trace, "--verbose", hoa]) == 0
    assert capsys.readouterr().out == "STEP 0 0 | 0:5\nSTEP 1 1 | 0:5\nSTEP 2 0 | 0:5\n"
    for state, action in ((1, "log:at {state}"), (7, "goto:1")):
        config = write(tmp_path, "bad.cfg", hook.format(state, action))
        assert main(["run", "--config", config, "--trace", trace, hoa]) == 1
        assert capsys.readouterr().err == "error: hook at: state 1 does not exist in automaton 0\n"


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


def test_run_trace_from_standard_input(tmp_path):
    # `--trace -` and `default = file:-` read the trace from standard
    # input, with the output and the trace errors a trace file gives
    config = write(tmp_path, "stdin.cfg", "[drivers]\ndefault = file:-\n")
    for trace, code, err in (("p\n1\n0\n", 10, b""),
                             ("p\n1\n2\n", 1, b"error: line 3: expected 0 or 1, found '2'\n")):
        path = write(tmp_path, "t.trace", trace)
        from_file = _cli_bytes(["run", "--trace", path, "--monitor", "--verbose", BADTRAP], tmp_path)
        assert (from_file.returncode, from_file.stderr) == (code, err)
        for source in (["--trace", "-"], ["--config", config]):
            piped = subprocess.run(
                [sys.executable, "-m", "hoarun", "run", *source, "--monitor", "--verbose", BADTRAP],
                input=trace.encode(),
                capture_output=True,
            )
            assert (piped.returncode, piped.stdout, piped.stderr) == (
                code, from_file.stdout, err
            )


def test_run_refuses_a_second_reader_of_standard_input(tmp_path, capsys, monkeypatch):
    # an automaton or a trace read from standard input leaves it to
    # nothing else; the run is refused before anything is read
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(load_fixture("badtrap.hoa")))
    interactive = write(tmp_path, "i.cfg", "[drivers]\ndefault = interactive\n")
    both = write(tmp_path, "b.cfg", "[drivers]\ndefault = file:-\np = interactive\n")
    prompt = write(tmp_path, "p.cfg", "[hooks.pick]\ntrigger = nondeterminism\naction = prompt\n")
    for args in (
        ["--trace", "-", "-"],
        ["--config", both, BADTRAP],
        ["--config", prompt, "--trace", "-", BADTRAP],
        ["--config", interactive, "-"],
        ["--config", prompt, "--trace", BADTRAP, "-"],
    ):
        assert main(["run", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: standard input can feed only one of the automata, the trace, "
            "and interactive drivers or prompt hooks\n"
        )
    assert "HOA: v1" in sys.stdin.read()


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


def test_run_reset_to_a_conclusive_start_state_latches_it_again(tmp_path, capsys):
    # every state of allaccept.hoa is good, its start state too: after
    # each reset the next step, which stays put, latches good again
    config = write(
        tmp_path, "reset.ini", "[hooks.reset]\ntrigger = verdict: conclusive\naction = reset\n"
    )
    trace = write(tmp_path, "t.trace", "p\n1\n1\n0\n")
    allaccept = str(FIXTURES / "allaccept.hoa")
    code = main(["run", "--trace", trace, "--config", config, "--monitor", allaccept])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "VERDICT monitor-true good @0",
        "VERDICT monitor-true good @1",
        "VERDICT monitor-true good @2",
    ]


def test_run_on_a_trace_without_rows_judges_nothing(tmp_path, capsys):
    # a monitor first observes its start state with the first input, so
    # a header-only trace leaves even a start state that is good unjudged
    trace = write(tmp_path, "t.trace", "# no rows\np\n")
    allaccept = str(FIXTURES / "allaccept.hoa")
    assert main(["run", "--trace", trace, "--monitor", allaccept]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", "--trace", trace, "--monitor", "--strict", allaccept]) == 12
    assert capsys.readouterr().out == ""


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


def _budget_inputs(tmp_path):
    # a state whose label's diagram, and a state whose table, pass the
    # node budget in the fixed proposition order: p_i & p_(20+i) for
    # each i, and twenty labels of one proposition each
    n = 20
    bus = " | ".join(f"({i} & {n + i})" for i in range(n))
    names = " ".join(f'"p{i}"' for i in range(2 * n))
    head = "HOA: v1\nStart: 0\nAcceptance: 1 Inf(0)\n"
    wide = write(tmp_path, "bus.hoa", head + f"States: 1\nAP: {2 * n} {names}\n--BODY--\n"
                 f"State: 0 {{0}}\n[{bus}] 0\n[!({bus})] 0\n--END--\n")
    edges = "".join(f"[{i}] {i % 2}\n" for i in range(n))
    names = " ".join(f'"p{i}"' for i in range(n))
    nondet = write(tmp_path, "nd.hoa", head + f"States: 2\nAP: {n} {names}\n--BODY--\n"
                   f"State: 0 {{0}}\n{edges}State: 1 {{0}}\n[t] 1\n--END--\n")
    return wide, nondet


def test_check_and_run_past_the_node_budget_end_promptly(tmp_path):
    wide, nondet = _budget_inputs(tmp_path)
    hoarun = [sys.executable, "-m", "hoarun"]
    checked = subprocess.run([*hoarun, "check", wide, nondet], capture_output=True,
                             text=True, timeout=60)
    assert checked.returncode == 0
    lines = checked.stdout.splitlines()
    refused = "deterministic=capacity-exceeded complete=capacity-exceeded"
    assert f"states=1 edges=2 {refused}" in lines[0]
    # one pair of the labels meets within the cap, but completeness takes
    # all twenty propositions, and one refusal answers both
    assert f"states=2 edges=21 {refused}" in lines[1]
    for path in (wide, nondet):
        ran = subprocess.run([*hoarun, "run", "--steps", "1", path], capture_output=True,
                             text=True, timeout=60)
        assert ran.returncode == 1
        assert ran.stderr == (
            "error: cannot run 0: the labels leaving state 0 take a decision diagram of "
            "over 131072 nodes\n"
        )


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
