#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark results.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends. Untraced runs of the
parent and of the change are paired in the order they started: a pair is
two consecutive runs, one from each side, so the runs must alternate (and
which side goes first should alternate too). For every workload and every
end-to-end metric of BENCHMARK.json it prints one row with each side's
median and quartiles and a verdict:

- ``improved``: at least 10 pairs, the change wins at least 9 of every 10
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile range;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: fewer than 10 pairs, more failed ops than the parent
  where the change would otherwise count as improved, or the parent's own
  spread is wider than the bound and not every change run beats every
  parent run;
- ``no worse``: otherwise.

It also reports, per workload, whether the op output digests and F1
figures of runs with the same seed stayed identical, and, for each side,
whether traced runs of the same seed and sources recorded the same
per-layer counts (they are deterministic; a mismatch is a harness or
program fault).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def pairs_of(parent: list[dict], change: list[dict]) -> list[tuple]:
    """Consecutive (parent, change) runs in start order, one of each side."""
    runs = sorted([(r["started_at"], 0, r) for r in parent]
                  + [(r["started_at"], 1, r) for r in change],
                  key=lambda x: x[0])
    out = []
    i = 0
    while i + 1 < len(runs):
        (_, side_a, a), (_, side_b, b) = runs[i], runs[i + 1]
        if side_a != side_b:
            out.append((a, b) if side_a == 0 else (b, a))
            i += 2
        else:
            i += 1
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Apply the pairing rule to one metric; a is the parent, b the change."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = (q3a - q1a) / med_a if med_a else 0.0
    n = len(a)
    if n < MIN_PAIRS:
        word = f"unresolved ({n} pairs, need {MIN_PAIRS})"
    elif wins >= WIN_SHARE * n and abs(med_b - med_a) > q3a - q1a:
        word = "improved"
    elif worse_by > bound:
        word = "regressed"
    elif spread > bound and not all(sign * (x - y) > 0
                                    for x in a for y in b):
        word = "unresolved (parent spread exceeds bound)"
    else:
        word = "no worse"
    return {"parent": (q1a, med_a, q3a), "change": (q1b, med_b, q3b),
            "change_pct": 100 * (med_b - med_a) / med_a if med_a else 0.0,
            "wins": wins, "pairs": n, "verdict": word}


def outputs(pairs) -> str:
    """Whether runs of the same seed produced the same output bytes."""
    same = [(a["digests"][:1] == b["digests"][:1]
             and a.get("quality") == b.get("quality"))
            for a, b in pairs if a["seed"] == b["seed"]]
    if not same:
        return "not compared (no pair shares a seed)"
    changed = same.count(False)
    if changed:
        return f"CHANGED in {changed} of {len(same)} same-seed pairs"
    return f"identical in {len(same)} same-seed pairs"


def count_key(record: dict) -> tuple:
    """Traced runs with the same key must record the same per-layer counts."""
    return record["workload"], record["seed"], record["env"]["src_sha256"]


def counts_repeat(records: list[dict]) -> str:
    """Whether traced runs that share a count_key recorded the same counts."""
    groups: dict[tuple, list] = {}
    for r in records:
        if r["trace"] and "counts" in r:
            groups.setdefault(count_key(r), []).append(r["counts"])
    repeated = [g for g in groups.values() if len(g) > 1]
    if not repeated:
        return "not checked (no seed has two traced runs)"
    differ = sum(1 for g in repeated if any(c != g[0] for c in g[1:]))
    if differ:
        return f"DIFFER for {differ} of {len(repeated)} repeated seeds"
    return f"identical for {len(repeated)} repeated seeds"


def compare(parent: list[dict], change: list[dict], metrics) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in parent if not r["trace"]}
                       & {r["workload"] for r in change if not r["trace"]})
    for workload in workloads:
        parent_runs = [r for r in parent if r["workload"] == workload]
        change_runs = [r for r in change if r["workload"] == workload]
        pairs = pairs_of([r for r in parent_runs if not r["trace"]],
                         [r for r in change_runs if not r["trace"]])
        parent_first = sum(1 for a, b in pairs
                           if a["started_at"] < b["started_at"])
        for m in metrics:
            a = [p["result"]["metrics"][m["name"]]["value"] for p, _ in pairs]
            b = [c["result"]["metrics"][m["name"]]["value"] for _, c in pairs]
            row = verdict(a, b, m["better"], m["bound"])
            failed = (sum(p["failed"] for p, _ in pairs),
                      sum(c["failed"] for _, c in pairs))
            if row["verdict"] == "improved" and failed[1] > failed[0]:
                row["verdict"] = "unresolved (more failed ops)"
            row.update(workload=workload, metric=m["name"], unit=m["unit"],
                       parent_first=parent_first, failed=failed)
            rows.append(row)
        rows.append({"workload": workload, "metric": "outputs",
                     "verdict": outputs(pairs)})
        rows.append({"workload": workload, "metric": "counts", "verdict":
                     f"parent {counts_repeat(parent_runs)}; "
                     f"change {counts_repeat(change_runs)}"})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    rows = compare(load(args.parent), load(args.change), metrics)
    for row in rows:
        if row["metric"] in ("outputs", "counts"):
            print(f"{row['workload']:<13} {row['metric']:<12} "
                  f"{row['verdict']}")
            continue
        pq1, pm, pq3 = row["parent"]
        cq1, cm, cq3 = row["change"]
        print(f"{row['workload']:<13} {row['metric']:<12} "
              f"parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
              f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] {row['unit']}  "
              f"{row['change_pct']:+.1f}%  wins {row['wins']}/{row['pairs']} "
              f"(parent first in {row['parent_first']})  "
              f"failed ops {row['failed'][0]}/{row['failed'][1]}  "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
