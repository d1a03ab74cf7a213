"""Command-line driver.

Subcommands:
  monitor SPEC [--events FILE|-] [--format lines|json] [--strict]
  traces  SPEC --depth K
  step    SPEC [--trace S] [--dot]
  check   SPEC [--count M] [--seed N] [--max-size S]

Exit codes: 0 success (monitor: final verdict RUNNING), 1 failure
(monitor: FAILED, check: violations found), 2 usage or format errors, and
input too deep or too large for the stack or memory.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import conformance
from .dot import to_dot
from .errors import CspmonError, InputDecodeError, OutOfAlphabetError
from .monitor import Verdict, feed, init_monitor
from .sos import internal_successors, run
from .syntax import IDENTIFIER, SpecFile, parse_spec, print_term
from .terms import FAIL
from .traces import canonical_traces, format_trace, parse_trace, semantics


def _load_spec(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise InputDecodeError(path, exc) from None
    return parse_spec(text)


def _iter_events(stream, fmt: str):
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if fmt == "json":
            record = json.loads(line)
            event = record.get("event") if isinstance(record, dict) else None
            if not isinstance(event, str):
                raise ValueError(f'expected {{"event": "<name>"}}, got {line}')
            yield event
        else:
            yield line


def cmd_monitor(args) -> int:
    spec = _load_spec(args.spec)
    state = init_monitor(spec.root, spec.alphabet)
    if args.events == "-":
        stream = sys.stdin
        # A C or POSIX locale reads stdin with surrogateescape, which would
        # pass a byte that is not UTF-8 through as part of an event name.
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="strict")
    else:
        stream = open(args.events, "r", encoding="utf-8")
    # One write per event, never batched: a live stdin sees each verdict at once.
    write = sys.stdout.write
    try:
        events = _iter_events(stream, args.format)
        for i, event in enumerate(events, start=1):
            if event in spec.alphabet:
                state = feed(state, event)
            elif not IDENTIFIER.fullmatch(event):
                # Echoed raw, it could forge a verdict line or fail to encode.
                raise ValueError(f"event name {event!r} is not an identifier")
            elif args.strict:
                # FAIL's monitor is FAILED from the start.
                state = init_monitor(FAIL, spec.alphabet)
            else:
                raise OutOfAlphabetError(event)
            # RUNNING exactly while a residual is left, as ``state.verdict``
            # says, without its property and enum lookups on every event.
            write(f"{i} {event} {'RUNNING' if state.residuals else 'FAILED'}\n")
    except UnicodeDecodeError as exc:
        # A subclass of ValueError: a file that is not text, not a bad record.
        name = "standard input" if stream is sys.stdin else args.events
        raise InputDecodeError(name, exc) from None
    except ValueError as exc:
        print(f"error: malformed event record: {exc}", file=sys.stderr)
        return 2
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0 if state.verdict is Verdict.RUNNING else 1


def cmd_traces(args) -> int:
    spec = _load_spec(args.spec)
    ts = semantics(spec.root, args.depth, spec.alphabet)
    for trace in canonical_traces(ts):
        print(format_trace(trace))
    return 0


def cmd_step(args) -> int:
    spec = _load_spec(args.spec)
    trace = parse_trace(args.trace)
    for event in trace:
        if event not in spec.alphabet:
            raise OutOfAlphabetError(event)
    if args.dot:
        if trace:
            raise CspmonError("--dot draws the transition system from the root; "
                              "it cannot be combined with --trace")
        print(to_dot(spec.root, spec.alphabet), end="")
        return 0
    states = run(spec.root, trace, spec.alphabet)
    for state in sorted(states, key=print_term):
        source = print_term(state)
        print(f"state: {source}")
        steps = sorted(
            (str(action), print_term(target))
            for action, target in internal_successors(state, spec.alphabet)
        )
        for label, target in steps:
            print(f"  {source} --{label}--> {target}")
    return 0


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    cfg = conformance.GenConfig(
        max_size=args.max_size, alphabet=spec.alphabet, seed=args.seed
    )
    terms = [spec.root] + list(conformance.gen_terms(cfg, args.count))
    reports = conformance.run_suite(terms, spec.alphabet, base_seed=args.seed)
    failures = 0
    for r in reports:
        print(r.line())
        if not r.passed:
            failures += 1
    return 1 if failures else 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspmon",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monitor", help="run the monitor over an event stream")
    p.add_argument("spec")
    p.add_argument("--events", default="-", help="event file, or - for stdin")
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.add_argument("--strict", action="store_true",
                   help="treat out-of-alphabet events as failures")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("traces", help="print the trace set at a depth bound")
    p.add_argument("spec")
    p.add_argument("--depth", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("step", help="explore transitions for debugging")
    p.add_argument("spec")
    p.add_argument("--trace", default="", help="dot-separated events to run first")
    p.add_argument("--dot", action="store_true", help="emit the LTS as Graphviz")
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("check", help="run the conformance suite")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=100)
    p.add_argument("--max-size", type=_int_at_least(1), default=8)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, CspmonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # Exit 1 would read as a FAILED verdict.
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
