#!/usr/bin/env python3
"""Compare sets of benchmark runs.

    python3 perfbench/compare.py SET_A [SET_B] [--bench BENCHMARK.json]

A run set is a directory (or a single file) of saved run output: the stdout
of `run.py`, whose `# record {...}` line names the workload, seed and
metrics, or the record files run.py leaves in <build dir>/runs. For each
workload x metric the helper prints each side's median and quartiles, as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median.

With one set it checks steadiness: an end-to-end metric whose spread is not
below a third of its bound is flagged UNSTEADY. With two sets it compares B
against A: a metric whose median is worse than A's by more than its bound is
flagged WORSE; one whose spread on either side is wider than the bound is
"unresolved", unless every B run beats every A run. Metrics without a bound
(per-layer) are printed only.
Exit status is 1 when anything is flagged.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def records_in(path):
    files = sorted(p for p in Path(path).rglob("*") if p.is_file()) if Path(path).is_dir() \
        else [Path(path)]
    for f in files:
        try:
            text = f.read_text()
        except (OSError, UnicodeDecodeError):
            continue
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("# record "):
                line = line[len("# record "):]
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
                yield rec


def load_set(path):
    """{(workload, traced): {metric: [values...]}}, one value per run.

    A record seen twice (a run's stdout and its record file) counts once;
    repeats of one seed are separate runs and differ in their run id."""
    runs = defaultdict(lambda: defaultdict(list))
    seen = set()
    for rec in records_in(path):
        key = json.dumps(rec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        for name, m in rec["metrics"].items():
            runs[(rec["workload"], bool(rec.get("trace", False)))][name].append(m["value"])
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("set_a")
    ap.add_argument("set_b", nargs="?")
    ap.add_argument("--bench", default=str(DEFAULT_BENCH))
    args = ap.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    bound = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    a = load_set(args.set_a)
    b = load_set(args.set_b) if args.set_b else None
    if not a:
        sys.exit(f"compare: no run records in {args.set_a}")

    flagged = 0
    for group in sorted(a):
        workload, traced = group
        print(f"\n{workload} ({'traced: per-layer' if traced else 'untraced: end-to-end'})")
        hdr = f"  {'metric':38} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
        if b is not None:
            hdr += f"  | {'n':>3} {'median B':>12} {'q1':>12} {'q3':>12} {'spread':>7} " \
                   f"{'change':>8}  verdict"
        print(hdr)
        for metric, va in a[group].items():
            med, q1, q3, spread = stats(va)
            row = f"  {metric:38} {len(va):3d} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} " \
                  f"{spread:7.2%}"
            spec = bound.get(metric)
            verdict = ""
            if b is None:
                if spec and spread >= spec["bound"] / 3:
                    verdict = f"  UNSTEADY (bound {spec['bound']:.0%})"
                    flagged += 1
            else:
                vb = b.get(group, {}).get(metric)
                if not vb:
                    print(row + "  | missing in B  MISSING")
                    flagged += 1
                    continue
                med_b, q1_b, q3_b, spread_b = stats(vb)
                sign = 1 if better.get(metric) == "higher" else -1
                change = (med_b - med) / abs(med) if med else 0.0
                gain = sign * change  # > 0: B is better
                row += f"  | {len(vb):3d} {fmt(med_b):>12} {fmt(q1_b):>12} {fmt(q3_b):>12} " \
                       f"{spread_b:7.2%} {change:+8.2%}"
                if spec:
                    lim = spec["bound"]
                    b_beats_all = (min(vb) > max(va)) if sign > 0 else (max(vb) < min(va))
                    if gain < -lim:
                        verdict = "  WORSE"
                        flagged += 1
                    elif max(spread, spread_b) > lim and not b_beats_all:
                        verdict = "  unresolved"
                    else:
                        verdict = "  ok"
            print(row + verdict)
    if b is not None:
        for group in sorted(set(b) - set(a)):
            print(f"\n{group[0]}: only in B")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
