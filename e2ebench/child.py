"""One benchmark process: set up a workload, then stop, time it or trace it.

    python3 e2ebench/child.py --workload NAME --seed N --mode setup|measure|trace
        [--seconds S] [--spans FILE]

Prints one JSON line.  `run.py` starts this script once per set-up sample
and once for the measured or traced run, so set-up time includes the
import of camina and peak RSS belongs to a single workload.
"""

import time

T0 = time.perf_counter()  # set-up time starts before camina is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def stamp() -> dict:
    """What a result depends on besides the code: the kernel path and host."""
    import numpy
    from camina import _kernels

    return {
        "USING_NUMBA": _kernels.USING_NUMBA,
        "CAMINA_NO_NUMBA": os.environ.get("CAMINA_NO_NUMBA", ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_pass(wl, items):
    inputs = wl.fresh(items)
    gc.collect()
    start = time.perf_counter()
    outcomes = wl.run(inputs)
    return outcomes, time.perf_counter() - start


def measure(wl, items, seconds: float) -> dict:
    """Untraced passes for about `seconds`; at least one.

    A pass starts only if it should end less than half a pass after the
    deadline, so a run of long passes does not overshoot by a whole pass.
    """
    pass_s, attempted, failures = [], 0, []
    deadline = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() + statistics.median(pass_s) / 2 < deadline:
        outcomes, elapsed = timed_pass(wl, items)
        if not pass_s:
            # Later passes add heap fragmentation noise, not program memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_s.append(elapsed)
        n, failed = wl.check(outcomes)
        attempted += n
        failures += failed
    return {
        "pass_s": pass_s,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


def trace(wl, items, tracer, spans_path) -> dict:
    """One untraced pass, then the same pass with a span per layer call."""
    from spec import PER_LAYER
    from tracing import self_time_by_name

    untraced, wall_s = timed_pass(wl, items)
    attempted, failures = wl.check(untraced)

    inputs = wl.fresh(items)
    gc.collect()
    with tracer.span("pass"):
        traced = wl.run_traced(inputs, tracer)
    n, failed = wl.check(traced)
    attempted += n
    failures += failed
    attempted += len(untraced)
    failures += [
        f"{key}: traced outcome differs from untraced"
        for key in untraced
        if traced.get(key) != untraced[key]
    ]
    n, failed = wl.traced_extra(tracer)
    attempted += n
    failures += failed

    self_s = self_time_by_name(tracer.spans)
    counts = tracer.counts
    traced_s = sum(s.end - s.start for s in tracer.spans if s.name == "pass")
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            metrics[name] = self_s.get(name[: -len("_s")], 0.0)
        else:
            metrics[name] = float(counts.get(name, 0))
    checks = counts.get("fixtures.iso_checks", 0)
    metrics["fixtures.iso_hit_ratio"] = counts["fixtures.iso_hits"] / checks if checks else 0.0
    metrics["trace.overhead_s"] = traced_s - tracer.probe_s - wall_s
    if spans_path:
        os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
        tracer.dump(spans_path)
    return {"metrics": metrics, "attempted": attempted, "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.mode == "trace" else NullTracer()
    import workloads  # imports camina

    wl = workloads.WORKLOADS[args.workload]()
    with tracer.span("setup"):
        items = wl.setup(random.Random(args.seed), tracer)
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s}
    if args.mode == "measure":
        result.update(measure(wl, items, args.seconds))
    elif args.mode == "trace":
        result.update(trace(wl, items, tracer, args.spans))
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["stamp"] = stamp()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
