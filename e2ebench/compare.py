#!/usr/bin/env python3
"""Compare result sets written by `run.py --out`, workload by workload.

    python3 e2ebench/compare.py --base a1.json a2.json a3.json --new b1.json b2.json b3.json

Make the two sides alternately (base, new, base, new, ...) with the same
seeds, so that the machine's drift falls on both.  For every workload and
end-to-end metric this prints the median of each side, the change as a
share of the base median, and a verdict:

- `ok` or `WORSE`: the change is within, or worse than, the metric's bound;
- `unresolved`: a change of the bound's size could not be told from noise,
  because a side has fewer than MIN_RUNS runs, because the spread of a
  side (the distance between its quartiles over its median) reaches the
  bound, or because the two sides were not made alternately.  A wide
  spread still reads `ok` when every new run is better than every base run.

Refuses (exit 2) to compare runs whose kernel path differs, since the
numba and numpy kernels are different programs, and runs of a workload
whose seeds differ, since the seed changes the order and so peak RSS on
`chartable_wide` and the isomorphism checks of `classify32`.  Exits 1 when
some metric got worse by more than its bound, else 3 when some verdict is
unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import spec

MIN_RUNS = 3  # runs per side and workload before a verdict is given


def kernel_path(run: dict) -> tuple:
    st = run["stamp"]
    return st["USING_NUMBA"], st["CAMINA_NO_NUMBA"]


def load(paths) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as fh:
            runs += json.load(fh)["runs"]
    return [r for r in runs if not r["trace"]]


def by_workload(runs) -> dict:
    out = defaultdict(list)
    for r in runs:
        out[r["workload"]].append(r)
    return out


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def alternated(base: list[dict], new: list[dict]) -> bool:
    """Whether the start times of the two sides overlap."""
    b = [r["started"] for r in base]
    n = [r["started"] for r in new]
    return min(b) < max(n) and min(n) < max(b)


def verdict(base: list[float], new: list[float], better: str, bound: float, together) -> str:
    if min(len(base), len(new)) < MIN_RUNS:
        return f"unresolved: need {MIN_RUNS} runs a side"
    if not together:
        return "unresolved: sides not alternated"
    sign = 1 if better == "lower" else -1
    worse = sign * (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    noise = max(spread(base), spread(new))
    if noise >= bound:
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "ok: every run better"
        return f"unresolved: spread {noise:.0%}"
    return "WORSE" if worse > bound else "ok"


def compare(base: list[dict], new: list[dict]) -> tuple[int, list[str]]:
    """(exit code, report lines) for two lists of untraced runs."""
    paths = {kernel_path(r) for r in base + new}
    if len(paths) != 1:
        return 2, [f"refusing to compare: kernel paths differ {sorted(paths)}"]
    rb, rn = by_workload(base), by_workload(new)
    for workload in rb.keys() & rn.keys():
        seeds = sorted(r["seed"] for r in rb[workload]), sorted(r["seed"] for r in rn[workload])
        if seeds[0] != seeds[1]:
            return 2, [f"refusing to compare {workload}: seeds differ {seeds[0]} {seeds[1]}"]
    code, lines = 0, []
    for workload, _ in spec.WORKLOADS:
        if workload not in rb or workload not in rn:
            continue
        together = alternated(rb[workload], rn[workload])
        for name, unit, better, bound in spec.END_TO_END:
            vb = [r["metrics"][name]["value"] for r in rb[workload] if name in r["metrics"]]
            vn = [r["metrics"][name]["value"] for r in rn[workload] if name in r["metrics"]]
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            change = (mn - mb) / mb
            word = verdict(vb, vn, better, bound, together)
            if word == "WORSE":
                code = 1
            elif word.startswith("unresolved") and code == 0:
                code = 3
            lines.append(
                f"{workload:15s} {name:12s} {mb:10.4g} -> {mn:10.4g} {unit:3s} "
                f"{change:+7.1%} (bound {bound:.0%}, n {len(vb)}/{len(vn)}) {word}"
            )
    return code, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    code, lines = compare(load(args.base), load(args.new))
    print("\n".join(lines), file=sys.stderr if code == 2 else sys.stdout)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
