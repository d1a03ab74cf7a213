"""End-to-end CLI behavior: subcommands, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import cspmon
from cspmon import sos
from cspmon.cli import main
from cspmon.conformance import GenConfig, gen_terms
from cspmon.errors import CspmonError
from cspmon.syntax import SpecFile, parse_spec
from cspmon.terms import prefix_depth
from cspmon.traces import semantics
from conftest import format_spec
from test_acceptance import MUTANTS


@pytest.fixture
def spec_file(tmp_path):
    def write(text):
        path = tmp_path / "spec.cspmon"
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def events_file(tmp_path):
    def write(lines):
        path = tmp_path / "events.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


class TestMonitorCommand:
    def test_running_stream_exits_zero(self, spec_file, events_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> ?y:{b} -> STOP")
        code = main(["monitor", spec, "--events", events_file(["a", "b"])])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["1 a RUNNING", "2 b RUNNING"]

    def test_violation_exits_one(self, spec_file, events_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> STOP")
        code = main(["monitor", spec, "--events", events_file(["b"])])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == ["1 b FAILED"]

    def test_fail_spec_empty_stream(self, spec_file, events_file):
        spec = spec_file("alphabet {a} process FAIL")
        assert main(["monitor", spec, "--events", events_file([])]) == 1

    def test_stop_spec_empty_stream(self, spec_file, events_file):
        spec = spec_file("alphabet {a} process STOP")
        assert main(["monitor", spec, "--events", events_file([])]) == 0

    def test_json_stream(self, spec_file, tmp_path):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"event": "a"}) + "\n")
        assert main(["monitor", spec, "--events", str(events), "--format", "json"]) == 0

    def test_malformed_json_exits_two(self, spec_file, tmp_path):
        spec = spec_file("alphabet {a} process STOP")
        events = tmp_path / "events.jsonl"
        events.write_text("{not json\n")
        assert main(["monitor", spec, "--events", str(events), "--format", "json"]) == 2

    def test_out_of_alphabet_exits_two(self, spec_file, events_file, capsys):
        spec = spec_file("alphabet {a} process STOP")
        assert main(["monitor", spec, "--events", events_file(["zz"])]) == 2
        assert capsys.readouterr().err == "error: event 'zz' is not in the declared alphabet\n"

    def test_out_of_alphabet_after_failure_exits_two(self, spec_file, events_file, capsys):
        spec = spec_file("alphabet {a} process STOP")
        assert main(["monitor", spec, "--events", events_file(["a", "zz"])]) == 2
        out, err = capsys.readouterr()
        assert out == "1 a FAILED\n"
        assert err == "error: event 'zz' is not in the declared alphabet\n"

    def test_strict_turns_mismatch_into_failure(self, spec_file, events_file):
        spec = spec_file("alphabet {a} process STOP")
        code = main(["monitor", spec, "--strict", "--events", events_file(["zz"])])
        assert code == 1

    def test_strict_failure_absorbs_later_events(self, spec_file, events_file, capsys):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        code = main(["monitor", spec, "--strict", "--events", events_file(["z", "a", "z"])])
        assert code == 1
        assert capsys.readouterr().out == "1 z FAILED\n2 a FAILED\n3 z FAILED\n"

    def test_stdin_stream(self, spec_file, capsys, monkeypatch):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
        assert main(["monitor", spec]) == 0

    @pytest.mark.parametrize("flags", [[], ["--strict"]], ids=["lenient", "strict"])
    @pytest.mark.parametrize(
        "fmt, record, shown",
        [
            # Echoed raw, the name would print a second, forged verdict line.
            ("json", json.dumps({"event": "x\n2 a RUNNING"}), r"'x\n2 a RUNNING'"),
            # Echoed raw, the name would fail to encode on output.
            ("json", json.dumps({"event": "\ud800"}), r"'\ud800'"),
            ("lines", "x y", "'x y'"),
        ],
        ids=["forged-line", "lone-surrogate", "space"],
    )
    def test_non_identifier_event_is_a_malformed_record(
        self, fmt, record, shown, flags, spec_file, tmp_path, capsys
    ):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        first = json.dumps({"event": "a"}) if fmt == "json" else "a"
        events = tmp_path / "events.txt"
        events.write_text(f"{first}\n{record}\n")
        code = main(["monitor", spec, "--events", str(events), "--format", fmt, *flags])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "1 a RUNNING\n"
        assert err == f"error: malformed event record: event name {shown} is not an identifier\n"


class TestTracesCommand:
    def test_canonical_listing(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a,b} -> STOP")
        assert main(["traces", spec, "--depth", "2"]) == 0
        # Empty line is the empty trace.
        assert capsys.readouterr().out == "\na\nb\n"

    def test_byte_stable_across_runs(self, spec_file, capsys):
        spec = spec_file(
            "alphabet {a,b,c} process ?x:Sigma -> ?y:Sigma \\ {x} -> STOP |[{c}]| STOP"
        )
        main(["traces", spec, "--depth", "4"])
        first = capsys.readouterr().out
        main(["traces", spec, "--depth", "4"])
        assert capsys.readouterr().out == first


class TestStepCommand:
    def test_lists_transitions(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process ?x:{a} -> FAIL |[{}]| STOP")
        assert main(["step", spec]) == 0
        out = capsys.readouterr().out
        assert "--a-->" in out

    def test_trace_argument(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> ?y:{b} -> STOP")
        assert main(["step", spec, "--trace", "a"]) == 0
        out = capsys.readouterr().out
        assert "state: ?y:{b} -> STOP" in out
        assert "--b--> STOP" in out

    def test_dot_output(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process FAIL |[{}]| ?x:{a} -> STOP")
        assert main(["step", spec, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert 'label="tau", style=dashed' in out

    def test_tau_edges_in_listing(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process FAIL |[{}]| STOP")
        main(["step", spec])
        assert "--tau--> FAIL" in capsys.readouterr().out

    # Both operands doomed: either side keeps propagating on its own (the two
    # both-doomed rules), and a bare FAIL operand absorbs the composition.
    BOTH_DOOMED = "alphabet {a} process (FAIL [] FAIL) |[{}]| (FAIL [] FAIL)"
    BOTH_DOOMED_STEPS = """\
state: (FAIL [] FAIL) |[{}]| (FAIL [] FAIL)
  (FAIL [] FAIL) |[{}]| (FAIL [] FAIL) --tau--> (FAIL [] FAIL) |[{}]| FAIL
  (FAIL [] FAIL) |[{}]| (FAIL [] FAIL) --tau--> FAIL |[{}]| (FAIL [] FAIL)
state: (FAIL [] FAIL) |[{}]| FAIL
  (FAIL [] FAIL) |[{}]| FAIL --tau--> FAIL
  (FAIL [] FAIL) |[{}]| FAIL --tau--> FAIL |[{}]| FAIL
state: FAIL
state: FAIL |[{}]| (FAIL [] FAIL)
  FAIL |[{}]| (FAIL [] FAIL) --tau--> FAIL
  FAIL |[{}]| (FAIL [] FAIL) --tau--> FAIL |[{}]| FAIL
state: FAIL |[{}]| FAIL
  FAIL |[{}]| FAIL --tau--> FAIL
"""

    def test_both_doomed_parallel(self, spec_file, capsys):
        assert main(["step", spec_file(self.BOTH_DOOMED)]) == 0
        assert capsys.readouterr().out == self.BOTH_DOOMED_STEPS

    @pytest.mark.parametrize(
        "rule",
        [
            "for t in steps(left, TAU):\n                out.append(Parallel(t, sync, right))",
            "for t in steps(right, TAU):\n                out.append(Parallel(left, sync, t))",
        ],
        ids=["left", "right"],
    )
    def test_both_doomed_rules_change_the_listing(
        self, rule, spec_file, source_mutant, capsys
    ):
        # Neither rule moves a trace set or breaks doomed normalization, so
        # only the listing shows a deleted one.
        with source_mutant(sos, "_successors", (rule, "pass")):
            assert main(["step", spec_file(self.BOTH_DOOMED)]) == 0
        assert capsys.readouterr().out != self.BOTH_DOOMED_STEPS


class TestCheckCommand:
    def test_reports_pass_lines(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> STOP [] FAIL")
        code = main(["check", spec, "--count", "20", "--seed", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out
        assert all(line.startswith("PASS ") for line in out)

    # The FAIL lines of ``check --count 8 --seed 1`` under each mutant of
    # acceptance check 7, counterexamples minimized.  The root spec is doomed
    # on both sides, so each viability mutant breaks it.
    FAIL_LINES = {
        "viability-left": ["FAIL doomed-normalization 1 ?x:{a} -> STOP |[{}]| FAIL"],
        "viability-right": ["FAIL doomed-normalization 1 FAIL |[{}]| ?y:{b} -> STOP"],
        "empty-precedence": [
            "FAIL correspondence 1 STOP |[{}]| FAIL",
            "FAIL doomed-iff-empty 1 STOP |[{}]| FAIL",
            "FAIL derivative-decomposition[a] 1 STOP |[{}]| FAIL",
            "FAIL derivative-decomposition[b] 1 STOP |[{}]| FAIL",
            "FAIL derivative-decomposition[a] 6 STOP |[{a,a}]| FAIL",
            "FAIL derivative-decomposition[b] 6 STOP |[{a,a}]| FAIL",
        ],
    }

    @pytest.mark.parametrize(
        "name, module, func_name, edit", MUTANTS, ids=[m[0] for m in MUTANTS]
    )
    def test_reports_minimized_failures_under_mutant(
        self, name, module, func_name, edit, spec_file, source_mutant, capsys
    ):
        spec = spec_file(
            "alphabet {a,b} process "
            "(?x:{a} -> STOP |[{}]| FAIL) [] (FAIL |[{}]| ?y:{b} -> STOP)"
        )
        with source_mutant(module, func_name, edit):
            code = main(["check", spec, "--count", "8", "--seed", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        failures = [line for line in out if not line.startswith("PASS ")]
        assert failures == self.FAIL_LINES[name]


class TestGoldenOutput:
    # sha256 and line count of stdout.  Depths below the spec's full depth
    # (8) truncate, so they exercise parcomp's merge budget.
    C = "?x:{a,b,c} -> ?x:{a,b,c} -> ?x:{a,b,c} -> ?x:{a,b,c} -> STOP"
    TRACES_SPEC = (
        f"alphabet {{a,b,c}} process ({C} |[{{a}}]| {C}) [] (?x:{{b}} -> FAIL |[{{}}]| {C})"
    )
    FULL = ("32a33cebf4bf77f9918a4c573b1f9ab55e49ec2273193fa26c121e72268bb406", 1681)
    TRACES_DIGESTS = {
        0: ("01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", 1),
        1: ("c17658c946a824694616753c742ed7b4c1ee8e14fd32410421117418988eead3", 4),
        3: ("bea6a190ba6fcab95cad0fb642bac1911c868de99b09476c3d78fdfb2e91c928", 40),
        5: ("0ba6003075993f1a14c9b1b8201c9c7a8d65c3f9e4cfde05ae3b047daf7ab530", 353),
        # The spec's full depth is 8, so depth 10 prints the same traces.
        8: FULL,
        10: FULL,
    }

    @staticmethod
    def _digest(capsys):
        out = capsys.readouterr().out.encode()
        return hashlib.sha256(out).hexdigest(), out.count(b"\n")

    def test_check(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b,c} process ?x:{a,b} -> STOP |[{a}]| ?y:{a} -> FAIL")
        assert main(["check", spec, "--count", "300", "--seed", "5"]) == 0
        assert self._digest(capsys) == (
            "f6699837a6b373c13fa99db1386951ea92b055ca6ad011e8f2aa654cae7e9dbc",
            1806,
        )

    @pytest.mark.parametrize("depth", sorted(TRACES_DIGESTS))
    def test_traces(self, depth, spec_file, capsys):
        spec = spec_file(self.TRACES_SPEC)
        assert main(["traces", spec, "--depth", str(depth)]) == 0
        assert self._digest(capsys) == self.TRACES_DIGESTS[depth]

    # perfbench's interleave_spec("a", "b", 2, 3): two 3-deep chains that
    # fail on b at each step, interleaved.
    C3 = (
        "(?x:{a,b} -> (?x:{a,b} -> (?x:{a,b} -> STOP [] ?x:{b} -> FAIL)"
        " [] ?x:{b} -> FAIL) [] ?x:{b} -> FAIL)"
    )
    INTERLEAVE_SPEC = f"alphabet {{a,b}} process {C3} |[{{}}]| {C3}"

    @pytest.mark.parametrize(
        "argv, events, code, digest",
        [
            (
                ["monitor"],
                "a b a b b a a b",
                1,
                ("51cf6677ddee92eac741cdf24529ee978b0e5b400b57792e45ca091115d80726", 8),
            ),
            (
                ["monitor", "--strict"],
                "a z b",
                1,
                ("d83568ee6a5d1a6fb3420159366bcb8f93b30814d7bdae1e4dd40ea1a5b9d2f7", 3),
            ),
            (
                ["step", "--trace", "a.b"],
                None,
                0,
                ("b6666894c85263ad60da529e862f95a6a79373b2a57036b002ab702763b79f5e", 30),
            ),
            (
                ["step", "--dot"],
                None,
                0,
                ("53cf380ab8a8d75624e6cfa167006766ea19af1987dbd12b0f20c9de12227307", 83),
            ),
        ],
        ids=["monitor", "monitor-strict", "step-trace", "step-dot"],
    )
    def test_monitor_and_step(
        self, argv, events, code, digest, spec_file, events_file, capsys
    ):
        args = [argv[0], spec_file(self.INTERLEAVE_SPEC), *argv[1:]]
        if events is not None:
            args += ["--events", events_file(events.split())]
        assert main(args) == code
        assert self._digest(capsys) == digest

    @pytest.mark.parametrize(
        "argv",
        [["monitor"], ["step", "--trace", "a.b"], ["step", "--dot"]],
        ids=["monitor", "step-trace", "step-dot"],
    )
    def test_output_does_not_depend_on_hash_seed(self, argv, spec_file, events_file):
        # Sets of terms and of steps iterate in hash order, and event names
        # hash differently under each PYTHONHASHSEED.
        args = [argv[0], spec_file(self.INTERLEAVE_SPEC), *argv[1:]]
        if argv[0] == "monitor":
            args += ["--events", events_file("a b a b b a a b".split())]
        src = os.path.dirname(os.path.dirname(cspmon.__file__))
        outputs = []
        for seed in ("0", "123"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "cspmon.cli", *args], capture_output=True, env=env
            )
            assert proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] != b""


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_spec_file(self, capsys):
        assert main(["traces", "/nonexistent.spec", "--depth", "2"]) == 2

    def test_bad_spec_syntax(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process STOP STOP")
        assert main(["traces", spec, "--depth", "2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "trace, name, flags",
        [("z", "z", []), ("a..b", "", []), ("z", "z", ["--dot"])],
        ids=["z", "empty", "z-dot"],
    )
    def test_step_trace_out_of_alphabet(self, trace, name, flags, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> ?y:{b} -> STOP")
        assert main(["step", spec, "--trace", trace, *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: event {name!r} is not in the declared alphabet\n"

    def test_step_dot_rejects_a_trace(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> ?y:{b} -> STOP")
        assert main(["step", spec, "--trace", "a", "--dot"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: --dot draws the transition system from the root; "
            "it cannot be combined with --trace\n"
        )

    def test_non_utf8_spec_names_the_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.cspmon"
        spec.write_bytes(b"alphabet {a} process \xff")
        assert main(["traces", str(spec), "--depth", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: not valid UTF-8")
        assert "0xff" in err

    def test_non_utf8_events_file_names_the_file(self, spec_file, tmp_path, capsys):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        events = tmp_path / "events.txt"
        events.write_bytes(b"a\n\xfe\n")
        assert main(["monitor", spec, "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {events}: not valid UTF-8")
        assert "malformed event record" not in err

    @pytest.mark.parametrize("flags", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_non_utf8_stdin_exits_two(self, spec_file, flags):
        # A C locale reads stdin with surrogateescape; the byte must not reach
        # the monitor as an event (exit 2 out of alphabet, or 1 if strict).
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        src = os.path.dirname(os.path.dirname(cspmon.__file__))
        env = {"LC_ALL": "C", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "cspmon.cli", "monitor", spec, *flags],
            input=b"a\n\xfe\n",
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: standard input: not valid UTF-8 (byte 0xfe: invalid start byte)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["traces", "--depth", "-1"],
            ["check", "--max-size", "0"],
            ["check", "--count", "-3"],
        ],
        ids=["negative-depth", "zero-max-size", "negative-count"],
    )
    def test_out_of_range_number_is_usage_error(self, argv, spec_file, capsys):
        spec = spec_file("alphabet {a} process STOP")
        assert main([argv[0], spec, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {argv[1]}: must be at least" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, spec_bytes, record",
        [
            ("traces", b"alphabet {a} process \xff", None),
            ("traces", None, None),
            ("monitor", b"alphabet {a} process STOP", "[1]"),
            ("monitor", b"alphabet {a} process STOP", '"a"'),
        ],
        ids=["non-utf8-spec", "directory-spec", "list-record", "string-record"],
    )
    def test_bad_input_exits_two(self, command, spec_bytes, record, tmp_path, capsys):
        # A crash must not exit 1, which reads as a FAILED verdict.
        spec = tmp_path
        if spec_bytes is not None:
            spec = tmp_path / "spec.cspmon"
            spec.write_bytes(spec_bytes)
        argv = [command, str(spec)]
        if command == "traces":
            argv += ["--depth", "2"]
        else:
            events = tmp_path / "events.jsonl"
            events.write_text(record + "\n")
            argv += ["--events", str(events), "--format", "json"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


# One left-associative run of 5,000 unions.
_DEEP_SET = " u ".join(["{a}"] * 5_000)
# The prefix that feeding ``a`` leaves of the spec of
# test_variable_under_a_deep_set_expression.
_CLOSED = "?y:" + " u ".join(["{a}"] * 3_001) + " -> STOP"
# ``check --count 0`` on a spec over {a,b} that passes every check.
_ALL_PASS = "".join(
    f"PASS {prop} 0\n"
    for prop in ("correspondence", "doomed-normalization", "doomed-iff-empty",
                 "derivative-decomposition[a]", "derivative-decomposition[b]")
)


class TestResourceErrors:
    # A crash must not exit 1, which reads as a FAILED verdict.
    def _assert_one_error_line(self, capsys):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_deep_chain_under_monitor(self, spec_file, events_file, capsys):
        # Parsed in a loop, with stored facts: no recursion, no error.
        for depth in (5_000, 10_000):
            spec = spec_file("alphabet {a} process " + "?x:{a} -> " * depth + "STOP")
            assert main(["monitor", spec, "--events", events_file(["a"])]) == 0
            assert capsys.readouterr() == ("1 a RUNNING\n", "")

    def test_deep_chain_under_step(self, spec_file, capsys):
        # A binder run is printed in a loop.
        spec = spec_file("alphabet {a} process " + "?x:{a} -> " * 10_000 + "STOP")
        assert main(["step", spec]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 2

    def test_deep_chain_under_step_dot(self, spec_file, capsys):
        # A node's steps are sorted by printed target; a binder run prints in a loop.
        spec = spec_file("alphabet {a} process " + "?x:{a} -> " * 500 + "STOP")
        assert main(["step", spec, "--dot"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 503

    def test_variable_free_under_a_long_binder_run(self, spec_file, events_file, capsys):
        # Stepping the root substitutes x under 3,000 ?y binders, in a loop.
        spec = spec_file(
            "alphabet {a} process ?x:{a} -> " + "?y:{a} -> " * 3000 + "?z:{x} -> STOP"
        )
        assert main(["monitor", spec, "--events", events_file([])]) == 0
        assert main(["monitor", spec, "--events", events_file(["a"] * 3003)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [f"{i} a RUNNING" for i in range(1, 3003)] + [
            "3003 a FAILED"
        ]

    @pytest.mark.parametrize(
        "command, extra, code, out",
        [
            ("monitor", ["--events"], 1, "1 a RUNNING\n2 a FAILED\n"),
            ("traces", ["--depth", "1"], 0, "\na\n"),
            ("check", ["--count", "0"], 0, _ALL_PASS),
            ("step", [], 0, f"state: ?x:{_DEEP_SET} -> STOP\n"
                            f"  ?x:{_DEEP_SET} -> STOP --a--> STOP\n"),
        ],
        ids=["monitor", "traces", "check", "step"],
    )
    def test_deep_set_expression(self, command, extra, code, out, spec_file, events_file,
                                 capsys):
        # A set expression stores its value when it is built, so reading it
        # takes no recursion, and a left-associative run of set operations
        # is printed in a loop.
        spec = spec_file(f"alphabet {{a,b}} process ?x:{_DEEP_SET} -> STOP")
        if command == "monitor":
            extra = extra + [events_file(["a", "a"])]
        assert main([command, spec, *extra]) == code
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize(
        "command, extra, out",
        [
            ("monitor", ["--events"], "1 a RUNNING\n2 a RUNNING\n"),
            ("traces", ["--depth", "2"], "\na\na.a\n"),
            ("check", ["--count", "0"], _ALL_PASS),
            ("step", ["--trace", "a"], f"state: {_CLOSED}\n  {_CLOSED} --a--> STOP\n"),
        ],
        ids=["monitor", "traces", "check", "step"],
    )
    def test_variable_under_a_deep_set_expression(self, command, extra, out, spec_file,
                                                  events_file, capsys):
        # Stepping the root substitutes x in a run of 3,000 set operations,
        # in a loop.
        operands = " u ".join(["{x}"] * 3_000)
        spec = spec_file(f"alphabet {{a,b}} process ?x:{{a}} -> ?y:{{x}} u {operands} -> STOP")
        if command == "monitor":
            extra = extra + [events_file(["a", "a"])]
        assert main([command, spec, *extra]) == 0
        assert capsys.readouterr() == (out, "")

    def test_wide_parallel_under_traces(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process " + " |[{}]| ".join(["STOP"] * 5000))
        assert main(["traces", spec, "--depth", "1"]) == 2
        self._assert_one_error_line(capsys)

    def test_memory_error(self, spec_file, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("cspmon.cli.semantics", exhausted)
        spec = spec_file("alphabet {a} process STOP")
        assert main(["traces", spec, "--depth", "1"]) == 2
        self._assert_one_error_line(capsys)


class TestDifferentialSweep:
    """Generated specs through every subcommand, each run checked against
    the library's own semantics (McKeeman, "Differential Testing for
    Software", Digital Technical Journal, 1998).

    A spec is a generated term printed by ``format_spec``; some get extra
    parentheses, some have the alphabet's ``a`` renamed ``d`` (so a use of
    ``a`` is undeclared) and some a duplicated ``STOP`` operand (a syntax
    error).  Each runs with 0-8 events over {a,b,c,d}.
    """

    SPECS = 120
    SEED = 2_024
    EVENTS = ("a", "b", "c", "d")

    @staticmethod
    def _mutate(text: str, rng) -> str:
        roll = rng.random()
        if roll < 0.2:
            head, term = text.split(" process ", 1)
            return f"{head} process ({term})"
        if roll < 0.3:
            return text.replace("{a", "{d", 1)
        if roll < 0.4:
            return text.replace("STOP", "STOP STOP", 1)
        return text

    @staticmethod
    def _run(argv: list[str], text: str) -> tuple[int, str, str]:
        """``main(argv)``'s exit code and output; no exception may escape."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # reported with the spec that raised it
                pytest.fail(f"{argv[0]} raised {exc!r} on {text!r}")
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            assert err.getvalue().startswith("error:"), (argv, text, err.getvalue())
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _monitor_expected(spec: SpecFile, events: list[str], strict: bool):
        """The output lines and exit code membership in ``semantics`` gives."""
        full = semantics(spec.root, prefix_depth(spec.root), spec.alphabet).traces
        lines, trace, strayed = [], (), False
        for i, event in enumerate(events, start=1):
            if event in spec.alphabet:
                trace += (event,)
            elif strict:
                strayed = True
            else:
                return lines, 2
            running = not strayed and trace in full
            lines.append(f"{i} {event} {'RUNNING' if running else 'FAILED'}")
        return lines, 0 if not strayed and trace in full else 1

    def test_every_subcommand_agrees_with_the_semantics(self, abc, tmp_path):
        rng = random.Random(self.SEED)
        spec_path, events_path = str(tmp_path / "spec"), str(tmp_path / "events")
        parsed = 0
        for term in gen_terms(GenConfig(max_size=10, alphabet=abc, seed=self.SEED), self.SPECS):
            text = self._mutate(format_spec(SpecFile(abc, term)), rng)
            events = [rng.choice(self.EVENTS) for _ in range(rng.randint(0, 8))]
            with open(spec_path, "w", encoding="utf-8") as f:
                f.write(text)
            with open(events_path, "w", encoding="utf-8") as f:
                f.write("".join(f"{e}\n" for e in events))
            monitor = ["monitor", spec_path, "--events", events_path]
            runs = {
                "monitor": self._run(monitor, text),
                "strict": self._run(monitor + ["--strict"], text),
                "traces": self._run(["traces", spec_path, "--depth", "3"], text),
                "step": self._run(["step", spec_path], text),
                "check": self._run(["check", spec_path, "--count", "0"], text),
            }
            try:
                spec = parse_spec(text)
            except CspmonError:
                assert {run[0] for run in runs.values()} == {2}, text
                continue
            parsed += 1
            for key, strict in (("monitor", False), ("strict", True)):
                code, out, _ = runs[key]
                lines, want = self._monitor_expected(spec, events, strict)
                assert (out.splitlines(), code) == (lines, want), (key, text, events)
            traces = semantics(spec.root, 3, spec.alphabet).traces
            listing = "".join(".".join(t) + "\n" for t in sorted(traces, key=lambda t: (len(t), t)))
            assert runs["traces"] == (0, listing, ""), text
            assert runs["step"][0] == 0, text
            code, out, _ = runs["check"]
            assert code == 0 and all(line.startswith("PASS ") for line in out.splitlines()), text
        # Most mutated specs still parse, so the comparisons above carry weight.
        assert parsed > self.SPECS * 3 // 4
