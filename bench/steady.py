"""Steadiness of the benchmark: run a workload on several seeds, summarise,
and compare two such sets.

    python3 bench/steady.py run --workload zeta-values --runs 10 --out a.json
    python3 bench/steady.py run --workload zeta-values --runs 10 --trace 1 --out t.json
    python3 bench/steady.py compare a.json b.json

``run`` starts ``bench/run.py`` once per seed (seeds first, first+1, ...),
one after another, and prints the median, the quartiles and the spread
(q3 - q1) / median of every metric.  Every run lasts run_seconds of
BENCHMARK.json.  For end-to-end metrics it flags a spread above the
metric's bound there.  ``compare`` takes two sets made with the same
seeds and fails when a median got worse than the first set's by more than
its bound, when the share of failed operations differs, or when a per-layer
count differs between the runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def summarise(values):
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_set(args) -> int:
    defs, spec = load_spec()
    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    report = {"workload": args.workload, "trace": args.trace, "runs": runs, "summary": {}}
    bad = []
    for name in runs[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        report["summary"][name] = s
        bound = defs.get(name, {}).get("bound")
        flag = ""
        if bound is not None and s["spread"] > bound:
            flag = f"  SPREAD ABOVE BOUND {bound}"
            bad.append(name)
        elif bound is not None:
            flag = f"  (bound {bound}, spread/bound {s['spread'] / bound:.2f})"
        print(f"{name:36s} median {s['median']:14.4f}  q1 {s['q1']:14.4f}  q3 {s['q3']:14.4f}  "
              f"spread {s['spread']:.4f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    if len(shares) > 1:
        bad.append("failed share")
        print(f"failed share differs between runs: {sorted(shares)}")
    if not all(r["correct"] for r in runs):
        bad.append("correct")
        print("some run reported incorrect outputs")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if bad else 0


def compare(args) -> int:
    defs, _spec = load_spec()
    with open(args.first) as fh:
        a = json.load(fh)
    with open(args.second) as fh:
        b = json.load(fh)
    bad = []
    for name, sa in a["summary"].items():
        sb = b["summary"][name]
        d = defs.get(name, {})
        if "bound" in d:
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if d["better"] == "higher":
                worse = -worse
            ok = worse <= d["bound"]
            print(f"{name:36s} {sa['median']:14.4f} -> {sb['median']:14.4f}  worse by {worse:+.4f}"
                  f"  bound {d['bound']}  {'ok' if ok else 'WORSE THAN BOUND'}")
            if not ok:
                bad.append(name)
        elif d.get("unit") == "count":
            by_seed = {r["seed"]: r["metrics"][name]["value"] for r in a["runs"]}
            differ = [r["seed"] for r in b["runs"]
                      if r["seed"] in by_seed and by_seed[r["seed"]] != r["metrics"][name]["value"]]
            print(f"{name:36s} count {'repeats exactly' if not differ else f'DIFFERS on seeds {differ}'}")
            if differ:
                bad.append(name)
    share = [{r["failed"] / r["attempted"] for r in s["runs"]} for s in (a, b)]
    if share[0] != share[1] or len(share[0]) != 1:
        bad.append("failed share")
        print(f"failed shares differ: {share}")
    print("sets agree" if not bad else f"sets disagree on: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload on several seeds")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare", help="compare two sets made by `run`")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    raise SystemExit(main())
