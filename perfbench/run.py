"""cspmon benchmark: one workload per call, in a fresh single-threaded process.

    python3 perfbench/run.py --workload interleave|sessions|check \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The parent process starts each pass as a
child process of this same file with a fixed PYTHONHASHSEED (frozenset
iteration order, and so cache counts, depends on it) and with the
checkout's ``src`` as the only import path for the package.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed, smaller amount of the same work three times in
fresh processes (plain, traced, under cProfile) and then the workload's
worst-case probes, and reports the per-layer metrics.  An info line with
the machine, the run and its operation counts precedes the result, which
is the last line of standard output; both are also written with the spans
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
HASH_SEED = "0"
RUN_BUDGET_S = 170  # every run, children included, ends within this
PROBE_CAP_S = 6
PROBE_MEMORY_BYTES = 1 << 30

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, in output order.  ``<layer>.<function>.<field>`` names
# with field calls, s (outermost-entry time), self_s or misses come from
# the tracer; the others are computed by name below.
PER_LAYER = {
    "syntax.parse_spec.calls": "count",
    "syntax.parse_spec.s": "s",
    "terms.substitute.calls": "count",
    "terms.substitute.s": "s",
    "terms.eval_event_set.calls": "count",
    "terms.eval_event_set.s": "s",
    "terms.is_doomed.calls": "count",
    "terms.is_doomed.misses": "count",
    "terms.hash.calls": "count",
    "terms.hash.share": "share",
    "sos.internal_successors.calls": "count",
    "sos.internal_successors.misses": "count",
    "sos.internal_successors.s": "s",
    "sos.tau_closure.calls": "count",
    "sos.tau_closure.misses": "count",
    "sos.tau_closure.s": "s",
    "sos.visible_successors.calls": "count",
    "sos.visible_successors.misses": "count",
    "sos.visible_successors.s": "s",
    "sos.visible_successors.hit_ratio": "ratio",
    "sos.cache.entries": "count",
    "monitor.init_monitor.s": "s",
    "monitor.feed.calls": "count",
    "monitor.feed.self_s": "s",
    "monitor.feed_after_failed.s": "s",
    "monitor.residuals.peak": "count",
    "monitor.residuals.mean": "count",
    "traces.semantics.calls": "count",
    "traces.semantics.s": "s",
    "traces.parcomp.calls": "count",
    "traces.parcomp.s": "s",
    "conformance.operational_traces.calls": "count",
    "conformance.operational_traces.s": "s",
    "conformance.gen_terms.s": "s",
    "conformance.minimize_counterexample.calls": "count",
    "trace.overhead": "x",
}
SOS_CACHES = ("sos.internal_successors", "sos.tau_closure", "sos.visible_successors")
# The workloads, each with the worst-case probes (defined in
# workloads.PROBES) that run once in its traced pass.
PROBES = {
    "interleave": ("interleave_n6_d5", "interleave_n8_d4"),
    "sessions": ("deep_prefix_1500", "tail_after_failure_200k"),
    "check": ("wide_parallel_3000",),
}


# --- child passes ---------------------------------------------------------------


def _import_package():
    sys.path.insert(0, str(SRC))
    import cspmon

    if not Path(cspmon.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported cspmon from {cspmon.__file__}, not {SRC}")
    import workloads

    return workloads


def child_measure(wl, w, seed, seconds):
    res = wl.run_parts(w, w.parts(seed, seconds))
    lat_ms = sorted(x * 1e3 for x in res.latencies)
    return {
        "metrics": {
            "setup_s": sum(res.setup_s),
            "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": _percentile(lat_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": res.attempted,
        "failed": res.failed,
        "notes": res.notes,
        "counts": {**res.counts, "latency_samples": len(lat_ms), "setup_samples": len(res.setup_s)},
    }


def _percentile(ordered, q):
    """Linear interpolation between closest ranks of a sorted list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _fixed_pass(wl, w, seed, observe=False):
    """The traced passes' fixed work, the same in each of them: one part, so
    that its caches warm up as much as in a part of a measured run."""
    return wl.run_parts(w, w.parts(seed, wl.TRACE_SECONDS, count=1), observe=observe)


def child_plain(wl, w, seed):
    t0 = time.perf_counter()
    _fixed_pass(wl, w, seed)
    return {"wall_s": time.perf_counter() - t0}


def child_profile(wl, w, seed):
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.runcall(_fixed_pass, wl, w, seed)
    stats = pstats.Stats(prof)
    calls = own = 0
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.stats.items():
        if filename == "~" and func == "<built-in method builtins.hash>":
            calls, own = ncalls, tottime
    return {"terms.hash.calls": calls, "terms.hash.share": own / stats.total_tt}


def child_traced(wl, w, seed, spans_path):
    t0 = time.perf_counter()
    with Tracer() as tr:
        res = _fixed_pass(wl, w, seed, observe=True)
    wall = time.perf_counter() - t0
    metrics = {}
    for name in PER_LAYER:
        key, field = name.rsplit(".", 1)
        stat = tr.stats.get(key)
        if stat is None:
            continue
        if field == "misses":
            delta = tr.cache_delta(key)
            if delta is not None:
                metrics[name] = delta[1]
        elif field in ("calls", "self_s"):
            metrics[name] = getattr(stat, field)
        elif field == "s":
            metrics[name] = stat.total_s
    vs = tr.cache_delta("sos.visible_successors")
    if vs is not None:
        metrics["sos.visible_successors.hit_ratio"] = vs[0] / max(1, vs[0] + vs[1])
    deltas = [tr.cache_delta(k) for k in SOS_CACHES]
    if all(d is not None for d in deltas):
        metrics["sos.cache.entries"] = sum(d[2] for d in deltas)
    if "monitor.feed" in tr.stats:
        metrics["monitor.feed_after_failed.s"] = res.after_failed_s
    if not res.residuals_absent:
        sizes = res.residual_sizes
        metrics["monitor.residuals.peak"] = max(sizes, default=0)
        metrics["monitor.residuals.mean"] = statistics.fmean(sizes) if sizes else 0.0
    with open(spans_path, "w") as f:
        json.dump({"fields": ["id", "name", "start", "end", "parent"],
                   "dropped": tr.spans_dropped, "spans": tr.spans}, f)
    return {
        "wall_s": wall,
        "layers": w.layers,
        "metrics": metrics,
        "wrapped": sorted(tr.stats),
        "spans": len(tr.spans),
        "spans_dropped": tr.spans_dropped,
        "attempted": res.attempted,
        "failed": res.failed,
        "notes": res.notes,
        "counts": res.counts,
    }


def child_probe(wl, probe):
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    fn = wl.PROBES[probe]
    t0 = time.perf_counter()
    try:
        fn()
        status = "ok"
    except Exception as exc:  # the probe's outcome is the record
        status = f"crash:{type(exc).__name__}"
    return {"status": status, "elapsed_s": time.perf_counter() - t0}


def child_main(args) -> int:
    wl = _import_package()
    w = wl.WORKLOADS[args.workload]
    if args.child == "measure":
        out = child_measure(wl, w, args.seed, args.seconds)
    elif args.child == "plain":
        out = child_plain(wl, w, args.seed)
    elif args.child == "profile":
        out = child_profile(wl, w, args.seed)
    elif args.child == "traced":
        out = child_traced(wl, w, args.seed, args.spans)
    else:
        out = child_probe(wl, args.probe)
    print(json.dumps(out))
    return 0


# --- parent -------------------------------------------------------------------


class ChildError(Exception):
    """A child pass exited without a result; the argument is its exit code."""


def _spawn(args, extra, deadline, timeout=None):
    """Run one child pass to completion (killed at its time limit) and
    return the JSON object on the last line of its output."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    budget = deadline - time.monotonic()
    if timeout is not None:
        budget = min(budget, timeout)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(budget, 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(proc.returncode)
    return json.loads(lines[-1])


def _probe(args, name, deadline):
    t0 = time.monotonic()
    try:
        return _spawn(args, ["--child", "probe", "--probe", name], deadline, PROBE_CAP_S)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "elapsed_s": time.monotonic() - t0}
    except ChildError as exc:  # e.g. killed by a signal on stack overflow
        return {"status": f"crash:exit{exc.args[0]}", "elapsed_s": time.monotonic() - t0}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parent_main(args) -> int:
    if not (SRC / "cspmon" / "__init__.py").is_file():
        print(f"error: no cspmon package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": HASH_SEED,
        "git_commit": _git_commit(),
    }
    try:
        if args.trace:
            result = _traced_run(args, info, deadline)
        else:
            out = _spawn(args, ["--child", "measure"], deadline)
            metrics = {k: {"value": out["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
            result = _result(out, metrics)
            info.update(counts=out["counts"], notes=out["notes"])
    except ChildError as exc:
        print(f"error: a child pass exited with code {exc.args[0]}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["op_failure_share"] = result["failed"] / result["attempted"]
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1))
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


def _result(out, metrics):
    attempted = max(1, out["attempted"])
    return {
        "correct": out["failed"] == 0 and out["attempted"] > 0,
        "attempted": attempted,
        "failed": out["failed"],
        "metrics": metrics,
    }


def layer_metrics(traced, plain, profile):
    """Every per-layer metric with its unit, each with a number, and two
    lists of names.  ``not_run``: the metrics of a layer the workload does
    not call into, which the tracer measures as 0.  ``absent``: those the
    passes could not measure, a function or cache the package no longer
    has; the result line needs a number for them too, so they read 0."""
    values = {**traced["metrics"], **profile,
              "trace.overhead": traced["wall_s"] / plain["wall_s"]}
    skipped = set(LAYERS) - set(traced["layers"])
    not_run = [name for name in PER_LAYER if name.split(".", 1)[0] in skipped]
    absent = [name for name in PER_LAYER if name not in values]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, not_run, absent


def _traced_run(args, info, deadline):
    spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    plain = _spawn(args, ["--child", "plain"], deadline)
    traced = _spawn(args, ["--child", "traced", "--spans", str(spans)], deadline)
    profile = _spawn(args, ["--child", "profile"], deadline)
    metrics, not_run, absent = layer_metrics(traced, plain, profile)
    info.update(
        counts=traced["counts"],
        notes=traced["notes"],
        not_run=not_run,
        absent=absent,
        plain_wall_s=plain["wall_s"],
        traced_wall_s=traced["wall_s"],
        spans=traced["spans"],
        spans_dropped=traced["spans_dropped"],
        wrapped=traced["wrapped"],
        probes={name: _probe(args, name, deadline) for name in PROBES[args.workload]},
    )
    return _result(traced, metrics)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(PROBES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("measure", "plain", "traced", "profile", "probe"),
                   help=argparse.SUPPRESS)
    p.add_argument("--probe", help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
