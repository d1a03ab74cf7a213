"""End-to-end CLI behavior: subcommands, formats, and exit codes."""

import io
import json

import pytest

from cspmon.cli import main


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

    def test_out_of_alphabet_exits_two(self, spec_file, events_file):
        spec = spec_file("alphabet {a} process STOP")
        assert main(["monitor", spec, "--events", events_file(["zz"])]) == 2

    def test_strict_turns_mismatch_into_failure(self, spec_file, events_file):
        spec = spec_file("alphabet {a} process STOP")
        code = main(["monitor", spec, "--strict", "--events", events_file(["zz"])])
        assert code == 1

    def test_stdin_stream(self, spec_file, capsys, monkeypatch):
        spec = spec_file("alphabet {a} process ?x:{a} -> STOP")
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n"))
        assert main(["monitor", spec]) == 0


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


class TestCheckCommand:
    def test_reports_pass_lines(self, spec_file, capsys):
        spec = spec_file("alphabet {a,b} process ?x:{a} -> STOP [] FAIL")
        code = main(["check", spec, "--count", "20", "--seed", "4"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out
        assert all(line.startswith("PASS ") for line in out)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_spec_file(self, capsys):
        assert main(["traces", "/nonexistent.spec", "--depth", "2"]) == 2

    def test_bad_spec_syntax(self, spec_file, capsys):
        spec = spec_file("alphabet {a} process STOP STOP")
        assert main(["traces", spec, "--depth", "2"]) == 2
        assert "error" in capsys.readouterr().err

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
