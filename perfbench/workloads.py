"""Workload inputs, closed-loop runners and worst-case probes.

Every workload is a closed loop with one caller: the next event or term is
sent only after the previous call returns, because monitor state is
sequential.  Inputs are built from the workload seed alone; the program sees
only spec texts, event streams and terms.  Each stream carries the verdict
expected after every event, worked out in closed form from the generator, so
every run checks the program's outputs.

The amount of work in a run is fixed by ``seconds`` times the workload's
nominal rate at the commit that defined the benchmark, so two commits
compared at the same ``seconds`` do the same work.  The inputs come in
``PARTS`` parts with fresh event names or fresh terms, each set up just
before it runs: set-up is timed several times per run, always cold, and
spread over the run so that its total samples the machine's slow and fast
spells alike.
"""

from __future__ import annotations

import gc
import random
import string
import time
from collections import Counter
from dataclasses import dataclass, field

import cspmon
import cspmon.conformance

RUNNING = cspmon.Verdict.RUNNING
FAILED = cspmon.Verdict.FAILED

PARTS = 5
TRACE_SECONDS = 4  # nominal length of the fixed work a traced run repeats
MAX_NOTES = 5


class VerdictMismatch(Exception):
    """A probe saw a verdict other than the one its generator predicts."""


def _name(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))


def _split(total: int, parts: int) -> list[int]:
    sizes = [total // parts + (i < total % parts) for i in range(parts)]
    return [s for s in sizes if s]


# --- monitor workloads ----------------------------------------------------


@dataclass
class MonitorInput:
    """Spec texts plus sessions ``(spec index, events, expected verdicts)``."""

    specs: list[str]
    sessions: list[tuple[int, list[str], list[cspmon.Verdict]]]


def interleave_spec(a: str, b: str, chains: int, depth: int) -> str:
    """``C |[{}]| C ...`` of depth-``depth`` chains over ``{a,b}``.

    Every chain step also offers ``?x:{b} -> FAIL``, so each ``b`` forks a
    doomed residual next to the viable one.
    """
    chain = "STOP"
    for _ in range(depth):
        chain = f"(?x:{{{a},{b}}} -> {chain} [] ?x:{{{b}}} -> FAIL)"
    return f"alphabet {{{a},{b}}} process " + " |[{}]| ".join([chain] * chains)


def interleave_session(rng: random.Random, chains: int, depth: int, tail: int):
    """One spec with its own event names and a stream past the spec's depth.

    The stream alternates ``a`` and ``b``.  A ``b`` costs more than an ``a``
    (it also forks the doomed branches), so a fixed pattern gives every
    session and every seed the same work; the seed picks the names.  The
    verdict stays RUNNING for ``chains*depth`` events and is FAILED from the
    next one on.
    """
    a, b = _name(rng, "a_"), _name(rng, "b_")
    n = chains * depth
    events = [(a, b)[i % 2] for i in range(n + tail)]
    expected = [RUNNING] * n + [FAILED] * tail
    return interleave_spec(a, b, chains, depth), events, expected


def setup_monitor(inp: MonitorInput):
    """Parse every spec and start its monitor; returns the initial states."""
    states = []
    for text in inp.specs:
        spec = cspmon.parse_spec(text)
        states.append(cspmon.init_monitor(spec.root, spec.alphabet))
    return states


class _MonitorWorkload:
    # The cspmon modules a run of the workload calls into.
    layers = ("syntax", "terms", "sos", "monitor")

    def setup(self, inp):
        return setup_monitor(inp)

    def run(self, inp, prepared, res, observe=False):
        run_monitor(inp, prepared, res, observe=observe)


class Interleave(_MonitorWorkload):
    """n-way interleaving: state explosion with cold ``sos`` caches."""

    name = "interleave"
    CHAINS, DEPTH, TAIL = 3, 6, 2
    SESSION_S = 0.4  # nominal seconds per session

    def parts(self, seed: int, seconds: float, count: int = PARTS) -> list[MonitorInput]:
        rng = random.Random(f"interleave/{seed}")
        out = []
        for size in _split(max(1, round(seconds / self.SESSION_S)), count):
            specs, sessions = [], []
            for i in range(size):
                spec, events, expected = interleave_session(
                    rng, self.CHAINS, self.DEPTH, self.TAIL
                )
                specs.append(spec)
                sessions.append((i, events, expected))
            out.append(MonitorInput(specs, sessions))
        return out


def sessions_spec(names: list[str], sync: str, rounds: int) -> str:
    """k components ``?x:{e_i} -> ?y:{s} -> ...``, all synchronised on s."""
    comps = []
    for e in names:
        body = "STOP"
        for _ in range(rounds):
            body = f"?x:{{{e}}} -> ?y:{{{sync}}} -> {body}"
        comps.append(f"({body})")
    alphabet = ",".join(names + [sync])
    return f"alphabet {{{alphabet}}} process " + f" |[{{{sync}}}]| ".join(comps)


class Sessions(_MonitorWorkload):
    """Per part one sync-heavy spec, many sessions back to back on warm caches."""

    name = "sessions"
    COMPONENTS, ROUNDS = 4, 24
    SESSIONS_PER_S = 20
    TAIL = 20_000  # events after failure in the run's last session

    def parts(self, seed: int, seconds: float, count: int = PARTS) -> list[MonitorInput]:
        rng = random.Random(f"sessions/{seed}")
        out = []
        for size in _split(max(count, round(seconds * self.SESSIONS_PER_S)), count):
            names = [_name(rng, f"e{i}_") for i in range(self.COMPONENTS)]
            sync = _name(rng, "s_")
            strays = set(rng.sample(range(size), size // 4))
            sessions = [
                (0, *self._session(rng, names, sync, i in strays)) for i in range(size)
            ]
            out.append(MonitorInput([sessions_spec(names, sync, self.ROUNDS)], sessions))
        _, events, expected = out[-1].sessions[-1]
        events += [rng.choice(events) for _ in range(self.TAIL)]
        expected += [FAILED] * self.TAIL
        return out

    def _session(self, rng, names, sync, stray):
        events, expected = [], []
        # A sync event before every component has moved this round is
        # refused: the verdict flips to FAILED right there.
        stray_at = (rng.randrange(self.ROUNDS), rng.randrange(self.COMPONENTS)) if stray else None
        for r in range(self.ROUNDS):
            order = names[:]
            rng.shuffle(order)
            if stray_at and stray_at[0] == r:
                events += order[: stray_at[1]] + [sync]
                expected += [RUNNING] * stray_at[1] + [FAILED]
                break
            events += order + [sync]
            expected += [RUNNING] * (len(order) + 1)
        # One event past the end: every component has stopped, so it fails
        # a complete session and confirms that FAILED absorbs.
        events.append(rng.choice(names + [sync]))
        expected.append(FAILED)
        return events, expected


# --- check workload ---------------------------------------------------------


def _chain(depth: int, events: str) -> str:
    body = "STOP"
    for _ in range(depth):
        body = f"?x:{events} -> {body}"
    return body


CHECK_ALPHABET = frozenset({"a", "b", "c"})
# Parallel-heavy roots, checked first the way ``cspmon check SPEC`` checks
# the spec's own term; ``parcomp`` takes a large share of their time.
CHECK_ROOTS = [
    "alphabet {a,b,c} process " + " |[{}]| ".join([_chain(3, "{a,b,c}")] * 2),
    "alphabet {a,b,c} process " + " |[{}]| ".join([_chain(4, "{a,b,c}")] * 2),
    "alphabet {a,b,c} process " + " |[{a}]| ".join([_chain(3, "{a,b,c}")] * 3),
]


@dataclass
class CheckInput:
    roots: list[str]
    config: cspmon.conformance.GenConfig
    count: int


class Check:
    """``run_suite`` over a seeded random corpus plus parallel-heavy roots."""

    name = "check"
    layers = ("syntax", "terms", "sos", "traces", "conformance")
    TERMS_PER_S = 1200

    def parts(self, seed: int, seconds: float, count: int = PARTS) -> list[CheckInput]:
        # Consecutive generator seeds: the parts together are one corpus.
        start = 1_000_000 * seed
        out = []
        for size in _split(max(1, round(seconds * self.TERMS_PER_S)), count):
            cfg = cspmon.conformance.GenConfig(max_size=12, alphabet=CHECK_ALPHABET, seed=start)
            out.append(CheckInput([] if out else CHECK_ROOTS, cfg, size))
            start += size
        return out

    def setup(self, inp: CheckInput):
        """Parse the roots and generate the corpus; returns ``(term, alphabet)``."""
        terms = []
        for text in inp.roots:
            spec = cspmon.parse_spec(text)
            terms.append((spec.root, spec.alphabet))
        corpus = cspmon.conformance.gen_terms(inp.config, inp.count)
        terms += [(t, inp.config.alphabet) for t in corpus]
        return terms

    def run(self, inp, prepared, res, observe=False):
        run_check(prepared, res)


WORKLOADS = {w.name: w for w in (Interleave(), Sessions(), Check())}


# --- closed-loop runners -----------------------------------------------------


@dataclass
class RunResult:
    """What one pass over a workload saw."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    setup_s: list[float] = field(default_factory=list)
    # Filled only when ``observe`` is set (the traced pass).
    residual_sizes: list[int] = field(default_factory=list)
    after_failed_s: float = 0.0
    residuals_absent: bool = False

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)


def run_parts(workload, parts, *, observe=False) -> RunResult:
    """Set up and run each part in turn, timing every set-up.

    A full garbage collection before each part settles the collector's debt
    from the previous part, which would otherwise land in this part's
    set-up or first operations at a point that varies with the seed.
    """
    res = RunResult()
    for part in parts:
        gc.collect()
        t0 = time.perf_counter()
        prepared = workload.setup(part)
        res.setup_s.append(time.perf_counter() - t0)
        workload.run(part, prepared, res, observe=observe)
    return res


def run_monitor(inp: MonitorInput, states, res: RunResult, *, observe=False):
    """Feed every session's stream, one event at a time, checking verdicts.

    A wrong verdict or an exception from ``feed`` counts as a failed
    operation; an exception also ends its session, since no state is left
    to feed.  With ``observe`` the pass also records residual-set sizes and
    the time spent feeding monitors that had already failed.
    """
    clock = time.perf_counter
    for spec_index, events, expected in inp.sessions:
        session = res.counts["sessions"]
        res.counts["sessions"] += 1
        state = states[spec_index]
        for i, (event, want) in enumerate(zip(events, expected)):
            was_failed = observe and cspmon.verdict_of(state) is FAILED
            res.attempted += 1
            t0 = clock()
            try:
                state = cspmon.feed(state, event)
            except Exception as exc:  # a crash is a failed operation
                res.latencies.append(clock() - t0)
                res.fail(f"session {session} event {i}: {type(exc).__name__}: {exc}")
                break
            dt = clock() - t0
            res.latencies.append(dt)
            got = cspmon.verdict_of(state)
            if got is not want:
                res.fail(f"session {session} event {i}: {got.value}, expected {want.value}")
            if observe:
                if was_failed:
                    res.after_failed_s += dt
                elif got is RUNNING:
                    residuals = getattr(state, "residuals", None)
                    if residuals is None:
                        res.residuals_absent = True
                    else:
                        res.residual_sizes.append(len(residuals))
    res.counts["events"] = res.attempted


def run_check(terms, res: RunResult):
    """Run the conformance suite on one term at a time; every report must PASS."""
    clock = time.perf_counter
    for term, alphabet in terms:
        index = res.counts["terms"]
        res.counts["terms"] += 1
        res.attempted += 1
        t0 = clock()
        try:
            out = cspmon.conformance.run_suite([term], alphabet, base_seed=index)
        except Exception as exc:  # a crash is a failed operation
            res.latencies.append(clock() - t0)
            res.fail(f"term {index}: {type(exc).__name__}: {exc}")
            continue
        res.latencies.append(clock() - t0)
        res.counts["reports"] += len(out)
        want = 3 + len(alphabet)
        bad = [r.line() for r in out if not r.passed]
        if len(out) != want or bad:
            res.fail(f"term {index}: {len(out)} reports (expected {want}), failing: {bad}")


# --- worst-case probes --------------------------------------------------------


def _probe_interleave(chains: int, depth: int):
    spec_text, events, expected = interleave_session(random.Random(0), chains, depth, 1)
    _feed_expecting(spec_text, events, expected)


def _probe_deep_prefix(depth: int = 1500):
    text = "alphabet {a} process " + _chain(depth, "{a}")
    _feed_expecting(text, ["a"] * (depth + 1), [RUNNING] * depth + [FAILED])


def _probe_tail(tail: int = 200_000):
    text = "alphabet {a} process ?x:{a} -> STOP"
    _feed_expecting(text, ["a"] * (tail + 2), [RUNNING] + [FAILED] * (tail + 1))


def _probe_wide_parallel(width: int = 3000):
    spec = cspmon.parse_spec("alphabet {a} process " + " |[{}]| ".join(["STOP"] * width))
    traces = cspmon.semantics(spec.root, 1, spec.alphabet).traces
    if traces != frozenset({()}):
        raise VerdictMismatch(f"{len(traces)} traces, expected only the empty trace")


def _feed_expecting(text, events, expected):
    spec = cspmon.parse_spec(text)
    state = cspmon.init_monitor(spec.root, spec.alphabet)
    for i, (event, want) in enumerate(zip(events, expected)):
        state = cspmon.feed(state, event)
        if cspmon.verdict_of(state) is not want:
            raise VerdictMismatch(f"event {i}: {state.verdict.value}, expected {want.value}")


PROBES = {
    "interleave_n6_d5": lambda: _probe_interleave(6, 5),
    "interleave_n8_d4": lambda: _probe_interleave(8, 4),
    "deep_prefix_1500": _probe_deep_prefix,
    "tail_after_failure_200k": _probe_tail,
    "wide_parallel_3000": _probe_wide_parallel,
}
