#!/usr/bin/env python3
"""The camina benchmark: one workload (or all four) in fresh child processes.

    python3 e2ebench/run.py --workload corpus113 --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --out results.json
    python3 e2ebench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the root of a camina checkout.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run,
each by name with its unit; the last line of a single-workload run is a
JSON object with the keys correct, attempted, failed and metrics.
See e2ebench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (
    "src/camina/__init__.py",
    "tests/fixtures/order32.grp",
    "tools/make_fixtures.py",
)
SETUP_SAMPLES = 5  # set-up is measured in this many child processes
TIME_LIMIT_S = 170.0  # a whole run ends well inside three minutes


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, deadline: float, *extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: out of time") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} {mode}: child exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline) -> dict:
    started = time.time()  # lets compare.py see whether two sides were alternated
    if trace:
        spans = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
        child = run_child(workload, seed, "trace", deadline, "--spans", str(spans))
        metrics = child["metrics"]
        samples = {}
    else:
        child = run_child(workload, seed, "measure", deadline, "--seconds", str(seconds))
        setups = [child["setup_s"]]
        setups += [
            run_child(workload, seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "wall_s": statistics.median(child["pass_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        samples = {"wall_s": len(child["pass_s"]), "setup_s": len(setups)}
    failures = child["failures"]
    return {
        "workload": workload,
        "seed": seed,
        "started": started,
        "trace": int(trace),
        "correct": not failures,
        "attempted": child["attempted"],
        "failed": len(failures),
        "failures": failures[:20],
        "samples": samples,
        "stamp": child["stamp"],
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()},
    }


def report(result: dict) -> None:
    st = result["stamp"]
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"USING_NUMBA={st['USING_NUMBA']} CAMINA_NO_NUMBA={st['CAMINA_NO_NUMBA']!r} "
        f"python={st['python']} numpy={st['numpy']} nproc={st['nproc']}"
    )
    for name, m in result["metrics"].items():
        n = result["samples"].get(name)
        note = f"  (median of {n})" if n else ""
        print(f"  {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"  fail_ratio {result['failed']}/{result['attempted']}")
    for msg in result["failures"]:
        print(f"  FAILED {msg}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [n for n, _ in spec.WORKLOADS]
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the result set here")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_text())
        return 0
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a camina checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(workloads)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(w, args.seed, args.seconds, bool(args.trace), deadline))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.write_text(json.dumps({"runs": results}, indent=1) + "\n")
    for r in results:
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
