"""What the benchmark runs and reports; the single source of BENCHMARK.json.

`python3 e2ebench/run.py --write-spec` regenerates BENCHMARK.json from
this module, and the self-tests check that the committed file matches.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "e2ebench/run.py"]
PATHS = ["e2ebench"]
RUN_SECONDS = 20

# Pinned instead of taken from camina.pairs.DEFAULT_CHAR_TABLE_CAP, so that
# raising the package default shows up as a deliberate benchmark change.
CHAR_TABLE_CAP = 256

WORKLOADS = [
    (
        "corpus113",
        "analyze_center_pair over the 113 acceptance groups; character tables "
        "on the positive verdicts dominate, so a characters change shows here",
    ),
    (
        "large2048",
        "analyze on eight groups of order 512 to 2048, all above the table cap; "
        "characters are bypassed and groups, kernels, structure and pairs dominate",
    ),
    (
        "chartable_wide",
        "Dixon tables with 71 to 145 classes plus both orthogonality checks, past "
        "the cap; the lambda-scan and k^3 class constants dominate",
    ),
    (
        "classify32",
        "the fixture generator's order-16 to order-32 classification; the only "
        "workload that drives its isomorphism search, bypassing pairs and characters",
    ),
]

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
]

# (name, unit, better); the layer is the part before the first dot.
PER_LAYER = [
    ("corpus.parse_s", "s", "lower"),
    ("corpus.build_s", "s", "lower"),
    ("corpus.groups", "count", "higher"),
    ("groups.center_s", "s", "lower"),
    ("groups.derived_s", "s", "lower"),
    ("groups.table_mb", "MB", "lower"),
    ("kernels.conjugacy_s", "s", "lower"),
    ("kernels.coset_check_s", "s", "lower"),
    ("kernels.commutator_check_s", "s", "lower"),
    ("kernels.class_products_s", "s", "lower"),
    ("pairs.centralizers_s", "s", "lower"),
    ("pairs.camina_group_s", "s", "lower"),
    ("pairs.bounds_s", "s", "lower"),
    ("pairs.positive", "count", "higher"),
    ("structure.series_s", "s", "lower"),
    ("characters.table_s", "s", "lower"),
    ("characters.ramified_s", "s", "lower"),
    ("characters.orthogonality_s", "s", "lower"),
    ("characters.tables", "count", "higher"),
    ("characters.classes_sum", "count", "higher"),
    ("characters.prime_sum", "count", "lower"),
    ("characters.consts_mb", "MB", "lower"),
    ("cli.verify_w1_s", "s", "lower"),
    ("cli.verify_w2_s", "s", "lower"),
    ("fixtures.extensions_s", "s", "lower"),
    ("fixtures.assoc_s", "s", "lower"),
    ("fixtures.fingerprint_s", "s", "lower"),
    ("fixtures.iso_s", "s", "lower"),
    ("fixtures.tables", "count", "lower"),
    ("fixtures.iso_checks", "count", "lower"),
    ("fixtures.iso_hit_ratio", "ratio", "higher"),
    ("fixtures.classes", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
