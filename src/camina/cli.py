"""Command-line front end: analyze, verify, census, search, chartable.

Exit codes: 0 all checks pass or vacuous, 2 at least one FAIL, 1
operational error (bad input, unknown id, parse failure).  With
--workers 1 output is byte-identical across runs; with more workers the
rows are sorted by group id before emission, so files still match.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import (
    FAMILIES,
    CorpusEntry,
    build_family,
    default_family_instances,
    parse_corpus,
    parse_family_spec,
)
from .errors import CaminaError, UnknownGroupId
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, center, derived_subgroup
from .pairs import (
    CHECK_IDS,
    DEFAULT_CHAR_TABLE_CAP,
    PREDICATES,
    analyze_center_pair,
    census,
    search_counterexample,
)
from .characters import dixon_character_table
from .structure import lower_central_series, upper_central_series

TSV_HEADER = ("group_id", "order", "p", "n", "m", "l", "class_c", "verdict") + CHECK_IDS


@dataclass
class RunConfig:
    inputs: list[Path] = field(default_factory=list)
    order_cap: int = DEFAULT_ORDER_CAP
    workers: int = 1
    report: Path | None = None
    chartable_cap: int = DEFAULT_CHAR_TABLE_CAP


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camina",
        description="Exact center-Camina-pair verdicts, inequality checks, "
        "census and counterexample search over finite-group corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers_default=1):
        p.add_argument(
            "--input",
            action="append",
            default=[],
            type=Path,
            help="corpus file (repeatable)",
        )
        p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        p.add_argument(
            "--workers",
            type=int,
            default=workers_default,
            help="parallel workers (default: %(default)s)",
        )
        p.add_argument("--report", type=Path, default=None, help="write output here")
        p.add_argument(
            "--chartable-cap",
            type=int,
            default=DEFAULT_CHAR_TABLE_CAP,
            help="largest order for which character tables are computed",
        )

    p = sub.add_parser("analyze", help="analyze one group (corpus id or family)")
    common(p)
    p.add_argument("--id", dest="gid", help="corpus group id, e.g. 32:6")
    p.add_argument(
        "--family",
        help="family spec name:params, e.g. quaternion:8, heisenberg:3, "
        "extraspecial_p:5, T:3,1",
    )

    p = sub.add_parser("verify", help="run the full check suite over a corpus")
    common(p, workers_default=os.cpu_count() or 1)

    p = sub.add_parser("census", help="count groups matching a predicate")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--predicate",
        default="center-pair",
        choices=sorted(PREDICATES),
    )

    p = sub.add_parser("search", help="scan for |Z|^2 > |G:Z| center pairs")
    common(p)
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP)
    p.add_argument(
        "--no-families",
        action="store_true",
        help="scan only the corpus inputs, not the built-in families",
    )

    p = sub.add_parser("chartable", help="print an exact character table")
    common(p)
    p.add_argument("--id", dest="gid")
    p.add_argument("--family")

    p = sub.add_parser("families", help="list built-in families and instances")
    common(p)
    p.add_argument("--max-order", type=int, default=625)
    return parser


def _load_entries(config: RunConfig) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for path in config.inputs:
        entries.extend(parse_corpus(path.read_text(), validate=False))
    return entries


def _resolve_group(config: RunConfig, args) -> tuple[str, FiniteGroup]:
    if getattr(args, "family", None):
        spec = parse_family_spec(args.family)
        return args.family, build_family(spec, order_cap=config.order_cap)
    if getattr(args, "gid", None):
        entries = _load_entries(config)
        for e in entries:
            if e.gid == args.gid:
                return e.gid, e.build(order_cap=config.order_cap)
        raise UnknownGroupId(f"group {args.gid} not found in the given inputs")
    raise CaminaError("need --id with --input, or --family")


def _emit(config: RunConfig, text: str) -> None:
    if config.report is not None:
        config.report.write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _series_orders(G: FiniteGroup) -> tuple[str, str]:
    low = " > ".join(str(t.order) for t in lower_central_series(G).terms)
    up = " < ".join(str(t.order) for t in upper_central_series(G).terms)
    return low, up


def cmd_analyze(config: RunConfig, args) -> int:
    gid, G = _resolve_group(config, args)
    lines = [f"group {gid} (order {G.order})"]
    Z = center(G)
    Gp = derived_subgroup(G)
    lines.append(f"|Z(G)| = {Z.order}; |G'| = {Gp.order}")
    analysis = analyze_center_pair(G, char_table_cap=config.chartable_cap)
    exit_code = 0
    if not analysis.applicable:
        why = "G is abelian" if Z.is_whole_group() else "Z(G) is trivial"
        lines.append(f"center pair verdict: not applicable ({why})")
    else:
        v = analysis.verdict
        lines.append(
            f"center pair verdict: {str(v.holds).lower()} "
            f"(classes={v.by_classes}, commutators={v.by_commutators}, "
            f"centralizers={v.by_centralizers})"
        )
        if v.witness is not None:
            g, n = v.witness
            detail = f"g={g}" if n < 0 else f"g={g}, n={n}"
            lines.append(f"witness: {detail}")
        lines.append(f"Camina group (pair with G'): {str(v.is_camina_group).lower()}")
        if analysis.report is not None:
            r = analysis.report
            lines.append(
                f"p={r.p} n={r.n} m={r.m} l={r.l}; nilpotency class {r.class_c}; "
                f"exp(G/Z) = {r.p}^{r.quotient_exponent_n}"
            )
            low, up = _series_orders(G)
            lines.append(f"lower central series orders: {low}")
            lines.append(f"upper central series orders: {up}")
            lines.append("checks:")
            for c in r.checks:
                lines.append(f"  {c.check_id:<9} {c.status}")
            if r.failures():
                exit_code = 2
    _emit(config, "\n".join(lines) + "\n")
    return exit_code


# ---------------------------------------------------------------------------
# verify


def _row_for_entry(entry: CorpusEntry, order_cap: int, chartable_cap: int) -> tuple:
    G = entry.build(order_cap=order_cap)
    analysis = analyze_center_pair(G, char_table_cap=chartable_cap)
    if not analysis.applicable:
        verdict = "na"
    else:
        verdict = "true" if analysis.verdict.holds else "false"
    if analysis.report is None:
        fields = ["-"] * 5 + [verdict] + ["VACUOUS"] * len(CHECK_IDS)
    else:
        r = analysis.report
        class_c = str(r.class_c) if r.class_c is not None else "-"
        fields = [str(r.p), str(r.n), str(r.m), str(r.l), class_c, verdict]
        fields += [r.check(cid).status for cid in CHECK_IDS]
    return (entry.order, entry.index, entry.gid, fields)


def _worker_row(payload) -> tuple:
    entry, order_cap, cap = payload
    return _row_for_entry(entry, order_cap, cap)


def cmd_verify(config: RunConfig, args) -> int:
    entries = _load_entries(config)
    payloads = [(e, config.order_cap, config.chartable_cap) for e in entries]
    if config.workers > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_worker_row, payloads, chunksize=4))
    else:
        rows = [_worker_row(p) for p in payloads]
    rows.sort(key=lambda r: (r[0], r[1]))
    out = ["\t".join(TSV_HEADER)]
    any_fail = False
    for order, index, gid, fields in rows:
        out.append("\t".join([gid, str(order)] + fields))
        any_fail = any_fail or ("FAIL" in fields)
    _emit(config, "\n".join(out) + "\n")
    return 2 if any_fail else 0


# ---------------------------------------------------------------------------
# census / search / chartable / families


def _corpus_items(config: RunConfig):
    for e in sorted(_load_entries(config), key=lambda e: (e.order, e.index)):
        yield e.gid, e.build(order_cap=config.order_cap)


def cmd_census(config: RunConfig, args) -> int:
    report = census(_corpus_items(config), args.order, args.predicate)
    text = (
        f"census order={report.order} predicate={report.predicate}\n"
        f"count {report.count}\n"
    )
    if report.hits:
        text += "hits: " + " ".join(report.hits) + "\n"
    _emit(config, text)
    return 0


def cmd_search(config: RunConfig, args) -> int:
    items = list(_corpus_items(config))
    if not args.no_families:
        for gid, spec in default_family_instances(args.max_order):
            items.append((gid, build_family(spec, order_cap=config.order_cap)))
    report = search_counterexample(items, args.max_order)
    lines = [f"scanned {report.scanned} groups of order <= {args.max_order}"]
    if report.strict:
        lines.append("STRICT COUNTEREXAMPLES (|Z|^2 > |G:Z|):")
        for f in report.strict:
            lines.append(f"  {f.gid} order={f.order} m={f.report.m} n={f.report.n}")
    else:
        lines.append("no strict counterexample")
    if report.equality:
        ids = ", ".join(f.gid for f in report.equality)
        lines.append(f"equality cases (|Z|^2 = |G:Z|): {ids}")
    _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_chartable(config: RunConfig, args) -> int:
    gid, G = _resolve_group(config, args)
    table = dixon_character_table(G)
    lines = [
        f"character table of {gid} (order {G.order}, {table.n_classes} classes, "
        f"exponent {table.exponent}, internal prime {table.modulus})",
        "class reps:  " + " ".join(str(int(r)) for r in table.class_reps),
        "class sizes: " + " ".join(str(int(s)) for s in table.class_sizes),
    ]
    for deg, row in zip(table.degrees, table.values):
        lines.append(f"deg {deg}: " + "  ".join(str(v) for v in row))
    _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_families(config: RunConfig, args) -> int:
    lines = ["family spec syntax: name:params"]
    for fam in FAMILIES.values():
        lines.append(f"  {fam.alias + ':' + fam.syntax:<27} {fam.doc}")
    lines += ["", f"built-in instances up to order {args.max_order}:"]
    for gid, spec in default_family_instances(args.max_order):
        lines.append(f"  {gid}")
    _emit(config, "\n".join(lines) + "\n")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "census": cmd_census,
    "search": cmd_search,
    "chartable": cmd_chartable,
    "families": cmd_families,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        inputs=list(args.input),
        order_cap=args.order_cap,
        workers=max(1, args.workers),
        report=args.report,
        chartable_cap=args.chartable_cap,
    )
    try:
        return COMMANDS[args.command](config, args)
    except (CaminaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
