"""Benchmark of amzv through its public API: one workload per run, in one
process with one thread.

    python3 bench/run.py --workload zeta-values --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one child each

An untraced run (``--trace 0``) repeats whole rounds of the workload for
``--seconds`` (at least one round; no round that would end later) and reports
the end-to-end metrics; set-up is timed in short-lived child interpreters.
A traced run (``--trace 1``) runs one round with field-operation counters,
then three untraced rounds alternating with three rounds with spans; it
reports the per-layer metrics and the tracing overhead.  Both print readable
lines and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of the run goes
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 20260810
SETUP_REPEATS = 6  # set-up samples at each end of a run
SETUP_EVERY = 2.0  # seconds between set-up samples taken between rounds
TRACE_PAIRS = 3  # plain and traced passes in a traced run

sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "identity_instances": "count"}


# times one set-up in a fresh interpreter: argv is the source directory,
# then the field sizes; prints seconds
SETUP_CHILD = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import amzv, amzv.cli
for q in sys.argv[2:]:
    amzv.field_from_q(int(q))
print(time.perf_counter() - t0)
"""


def setup_sample(qs):
    """One timing of the import of amzv plus the construction of the
    fields, in a fresh interpreter, so the workload's own state cannot
    slow it.  The interpreter's start-up is not timed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *map(str, qs)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def run_round(ops, spans=None, after_op=None):
    """Run one round.  Returns [(label, seconds, error or None)] and the
    rendered outputs of the operations that did not fail, by label."""
    records, outputs = [], {}
    clock = time.perf_counter
    for i, op in enumerate(ops):
        op.prepare()
        if spans is not None:
            spans.op_id = i
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
        if spans is not None:
            spans.op_id = tracing.OUTSIDE
        if after_op is not None:
            after_op()
        if not error:
            out = op.render(result)
            if outputs.setdefault(op.label, out) != out:
                error = "output differs from an earlier run of the same operation"
        records.append((op.label, dt, error))
    return records, outputs


def best_times(rounds):
    """Each operation's best time over the given rounds; failures left out."""
    best = {}
    for records in rounds:
        for label, dt, error in records:
            if not error:
                best[label] = min(dt, best.get(label, dt))
    return best


def nearest_rank(sorted_values, share):
    return sorted_values[max(0, math.ceil(len(sorted_values) * share) - 1)]


class Rounds:
    """Timings of every round; outputs of the first round only.  Later
    rounds are compared with the first as they finish and then dropped, so
    memory does not grow with the number of rounds."""

    def __init__(self):
        self.records = []
        self.first = None
        self.changed = []

    def add(self, records, outputs):
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.changed.append(len(self.records) + 1)
        self.records.append(records)

    def judge(self, wl):
        """(identity instances, failed operations, problems found)."""
        problems = [f"round {k} printed other outputs than the first" for k in self.changed]
        failed = 0
        for records in self.records:
            for label, _dt, error in records:
                if error:
                    failed += 1
                    if label != wl.known_fault:
                        problems.append(f"{label} failed: {error}")
        instances, found = wl.check(self.first)
        return instances, failed, problems + found


def commit_id():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def benchmark_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name](seed)
    sys.path.insert(0, SRC)
    amzv = importlib.import_module("amzv")
    importlib.import_module("amzv.cli")
    if not os.path.abspath(amzv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported amzv from {amzv.__file__}, not from {SRC}")
    specs = {q: amzv.field_from_q(q) for q in wl.qs}
    setup_s = [setup_sample(wl.qs) for _ in range(SETUP_REPEATS)] if not trace else []
    wl.setup(amzv, specs)
    ops = wl.ops()
    record = {}
    os.makedirs(RESULTS, exist_ok=True)

    rounds = Rounds()
    if not trace:
        # whole rounds only: stop before a round that would end past --seconds.
        # Set-up is also timed every SETUP_EVERY seconds between rounds, so
        # its samples are spread over the run.
        t_start = last_setup = time.perf_counter()
        while True:
            gc.collect()
            t_round = time.perf_counter()
            rounds.add(*run_round(ops))
            now = time.perf_counter()
            if now + (now - t_round) - t_start > seconds:
                break
            if now - last_setup >= SETUP_EVERY:
                setup_s.append(setup_sample(wl.qs))
                last_setup = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        instances, failed, problems = rounds.judge(wl)
        setup_s += [setup_sample(wl.qs) for _ in range(SETUP_REPEATS)]
        round_s = [sum(dt for _l, dt, _e in r) for r in rounds.records]
        best = best_times(rounds.records)
        op_s = sorted(best.values())
        metrics = {
            "setup_s": statistics.median(setup_s),
            # every distinct operation that did not fail, once, at its best time
            "run_s": sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_p90_ms": nearest_rank(op_s, 0.9) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "identity_instances": instances,
        }
        units = END_TO_END_UNITS
        record.update(rounds=len(rounds.records), round_s=round_s, setup_samples=setup_s,
                      op_best_s=best)
    else:
        # the counting pass goes first and also warms the interpreter.  Then
        # plain and traced passes alternate, and the overhead compares each
        # operation's best time with and without spans.
        counts = {}
        gc.collect()
        with tracing.count_pass(counts):
            rounds.add(*run_round(ops))
        made = []  # fields the program builds inside the current operation
        peak = dict.fromkeys(tracing.MEMOS, 0)

        def memo_peak():
            for k, v in tracing.memo_entries(list(specs.values()) + made).items():
                peak[k] = max(peak[k], v)
            made.clear()

        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            gc.collect()
            records, outputs = run_round(ops)
            rounds.add(records, outputs)
            plain.append(records)
            spans = tracing.Spans()
            gc.collect()
            with tracing.span_pass(spans, on_field=made.append):
                spans.op_id = tracing.SETUP
                for q in wl.qs:
                    amzv.field_from_q(q)
                spans.op_id = tracing.OUTSIDE
                made.clear()
                records, outputs = run_round(ops, spans, after_op=memo_peak)
            rounds.add(records, outputs)
            traced.append((sum(dt for _l, dt, _e in records), records, spans))
        instances, failed, problems = rounds.judge(wl)
        plain_s = sum(best_times(plain).values())
        traced_s = sum(best_times([r for _t, r, _s in traced]).values())
        # per-layer figures come from the quickest traced pass
        spans = min(traced, key=lambda t: t[0])[2]
        metrics = tracing.layer_metrics(spans)
        metrics.update(peak)
        metrics.update(counts)
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        units = tracing.METRIC_UNITS
        record["spans"] = spans.write(os.path.join(RESULTS, f"{name}-seed{seed}.spans"))
        record.update(untraced_run_s=plain_s, traced_run_s=traced_s)

    attempted = sum(len(r) for r in rounds.records)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    record.update(
        result,
        workload={"name": name, "why": wl.why},
        seed=seed, seconds=seconds, trace=trace, problems=problems,
        failures=sorted({f"{l}: {e}" for r in rounds.records for l, _dt, e in r if e}),
        commit=commit_id(), python=platform.python_version(), nproc=os.cpu_count(),
        benchmark=benchmark_spec(),
    )
    tracing.dump_json(os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json"), record)

    print(f"workload {name}  seed {seed}  trace {trace}  rounds {len(rounds.records)}  "
          f"attempted {attempted}  failed {failed}")
    for f in record["failures"]:
        print(f"  failed: {f}")
    for k, m in result["metrics"].items():
        print(f"  {k:36s} {m['value']:>14.4f} {m['unit']}")
    print(f"  correct: {'yes' if not problems else 'NO'}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 3


def run_all(seed, seconds, trace):
    """Every workload in a fresh interpreter of its own, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 3) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=(benchmark_spec() or {}).get("run_seconds", 30),
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "amzv", "__init__.py")):
        print(f"error: no amzv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
