#!/usr/bin/env python3
"""Steadiness and tracing-overhead reports for the repository benchmark.

Steadiness: runs one workload N times per set (each run with its own
seed), for one or more sets, and prints for every end-to-end metric the
median, the quartiles, the spread (interquartile distance over the
median) of each set, and the ratio of the last set's median to the
first's. Those numbers are what the bounds in BENCHMARK.json come from.

    python3 perfbench/steady.py --workload serve-yago --runs 10 --sets 2

Overhead: runs a workload untraced and traced on the same seed and prints
traced / untraced for every end-to-end metric (the traced run records the
end-to-end values it measured with spans and the registry on).

    python3 perfbench/steady.py --workload serve-yago --overhead

Results are also written as JSON under the build directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the entry point's build helpers)


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}, spec["run_seconds"]


def run_once(binary, workload, seed, seconds, trace):
    out_dir = run.build_dir() / "perfbench-out"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct: {result}")
    record = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())["record"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# Per-run machine diagnostics from the run record, printed per set.
DRIFT = ["calib_spin_ms", "calib_spin_end_ms", "steal_s"]


def steadiness(args, binary, bounds):
    sets, drifts = [], []
    for s in range(args.sets):
        values, drift = {}, {}
        for r in range(args.runs):
            seed = args.first_seed + r
            result, record = run_once(binary, args.workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for key in DRIFT:
                drift.setdefault(key, []).append(record.get(key, 0))
            print(f"set {s} run {r} seed {seed} done", file=sys.stderr)
        sets.append(values)
        drifts.append(drift)

    report = {"workload": args.workload, "runs": args.runs, "sets": sets, "drift": drifts}
    print(f"{args.workload}: {args.runs} runs x {args.sets} sets, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':18} {'bound':>6} " +
          " ".join(f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}" for _ in sets) +
          f" {'ratio':>7}")
    worst = {}
    for name in sets[0]:
        row = []
        for values in sets:
            med, q1, q3, sp = spread(values[name])
            row.append((med, q1, q3, sp))
        ratio = row[-1][0] / row[0][0] if row[0][0] else float("nan")
        bound = bounds.get(name)
        worst[name] = {"spreads": [r[3] for r in row], "ratio": ratio, "bound": bound}
        print(f"{name:18} {bound if bound is not None else '-':>6} " +
              " ".join(f"{m:12.6g} {a:12.6g} {b:12.6g} {sp:7.3f}" for m, a, b, sp in row) +
              f" {ratio:7.3f}")
    for i, drift in enumerate(drifts):
        for key, vals in drift.items():
            print(f"set {i + 1} {key:18} " + " ".join(f"{v:.4g}" for v in vals))
    report["summary"] = worst
    out = run.build_dir() / "steady" / f"{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"written {out}")


def overhead(args, binary):
    seed = args.first_seed
    untraced, _ = run_once(binary, args.workload, seed, args.seconds, 0)
    _, record = run_once(binary, args.workload, seed, args.seconds, 1)
    print(f"{args.workload} seed {seed}: traced / untraced")
    for name, m in untraced["metrics"].items():
        traced = record.get("e2e." + name)
        ratio = traced / m["value"] if traced is not None and m["value"] else float("nan")
        print(f"{name:18} {m['value']:14.6g} {traced if traced is not None else float('nan'):14.6g}"
              f" {ratio:8.3f}")


def main():
    bounds, run_seconds = load_bounds()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    binary = run.build()
    if args.overhead:
        overhead(args, binary)
    else:
        steadiness(args, binary, bounds)


if __name__ == "__main__":
    main()
