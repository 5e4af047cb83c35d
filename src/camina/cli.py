"""Command-line front end: analyze, verify, census, search, chartable.

Exit codes: 0 all checks pass or vacuous, 2 at least one FAIL, 1
operational error (bad input, unknown id, parse failure, bad usage).
The verify rows are always sorted by group id, (order, index), at any
number of workers, so its output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, repeat
from pathlib import Path

from .corpus import (
    FAMILIES,
    CorpusEntry,
    build_family,
    default_family_instances,
    parse_corpus,
    parse_family_spec,
)
from .errors import CaminaError, CorpusSyntaxError, UnknownGroupId, UsageError
from .groups import (
    DEFAULT_ORDER_CAP,
    MAX_ORDER_CAP,
    FiniteGroup,
    center,
    derived_subgroup,
)
from .pairs import (
    CHECK_IDS,
    DEFAULT_CHAR_TABLE_CAP,
    PREDICATES,
    analyze_center_pair,
    census,
    search_counterexample,
)
from .characters import dixon_character_table
from .cyclotomic import format_values
from .structure import lower_central_series, upper_central_series

TSV_HEADER = ("group_id", "order", "p", "n", "m", "l", "class_c", "verdict") + CHECK_IDS


class _Parser(argparse.ArgumentParser):
    """Reports bad usage as a CaminaError instead of exiting 2."""

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int, most: int | None = None):
    """argparse type: an int no smaller than `low` and, if given, no larger
    than `most`."""

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="camina",
        description="Exact center-Camina-pair verdicts, inequality checks, "
        "census and counterexample search over finite-group corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, corpus=True):
        p = sub.add_parser(name, help=help)
        if corpus:
            p.add_argument(
                "--input",
                action="append",
                default=[],
                type=Path,
                help="corpus file (repeatable)",
            )
            p.add_argument(
                "--order-cap",
                type=_at_least(1, MAX_ORDER_CAP),
                default=DEFAULT_ORDER_CAP,
                help=f"largest group order built, at most {MAX_ORDER_CAP}",
            )
        p.add_argument("--report", type=Path, default=None, help="write output here")
        return p

    def chartable_cap(p):
        p.add_argument(
            "--chartable-cap",
            type=_at_least(0),
            default=DEFAULT_CHAR_TABLE_CAP,
            help="largest order for which character tables are computed",
        )

    def one_group(p):
        p.add_argument("--id", dest="gid", help="corpus group id, e.g. 32:6")
        p.add_argument(
            "--family",
            help="family spec name:params, e.g. quaternion:8, heisenberg:3, "
            "extraspecial_p:5, T:3,1",
        )

    p = command("analyze", "analyze one group (corpus id or family)")
    chartable_cap(p)
    one_group(p)

    p = command("verify", "run the full check suite over a corpus")
    p.add_argument(
        "--workers",
        type=_at_least(1),
        default=os.cpu_count() or 1,
        help="parallel workers, at most one per entry and CPU (default: %(default)s)",
    )
    chartable_cap(p)

    p = command("census", "count groups matching a predicate")
    p.add_argument("--order", type=_at_least(1), required=True)
    p.add_argument(
        "--predicate",
        default="center-pair",
        choices=sorted(PREDICATES),
    )

    p = command("search", "scan for |Z|^2 > |G:Z| center pairs")
    p.add_argument("--max-order", type=_at_least(1), default=DEFAULT_ORDER_CAP)
    p.add_argument(
        "--no-families",
        action="store_true",
        help="scan only the corpus inputs, not the built-in families",
    )

    one_group(command("chartable", "print an exact character table"))

    p = command("families", "list built-in families and instances", corpus=False)
    p.add_argument("--max-order", type=_at_least(1), default=625)
    return parser


def _load_entries(args) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for path in args.input:
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line of the bad byte, numbered as parse_corpus numbers lines
            line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
            message = f"{path} is not UTF-8: {exc.reason}"
            raise CorpusSyntaxError(line, message) from None
        entries.extend(parse_corpus(text, validate=False, order_cap=args.order_cap))
    return entries


def _resolve_group(args) -> tuple[str, FiniteGroup]:
    if args.family:
        spec = parse_family_spec(args.family)
        return args.family, build_family(spec, order_cap=args.order_cap)
    if args.gid:
        for e in _load_entries(args):
            if e.gid == args.gid:
                return e.gid, e.build(order_cap=args.order_cap)
        raise UnknownGroupId(f"group {args.gid} not found in the given inputs")
    raise CaminaError("need --id with --input, or --family")


def _emit(args, text: str) -> None:
    if args.report is not None:
        args.report.write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _series_orders(G: FiniteGroup) -> tuple[str, str]:
    low = " > ".join(str(t.order) for t in lower_central_series(G).terms)
    up = " < ".join(str(t.order) for t in upper_central_series(G).terms)
    return low, up


def cmd_analyze(args) -> int:
    gid, G = _resolve_group(args)
    lines = [f"group {gid} (order {G.order})"]
    Z = center(G)
    Gp = derived_subgroup(G)
    lines.append(f"|Z(G)| = {Z.order}; |G'| = {Gp.order}")
    analysis = analyze_center_pair(G, char_table_cap=args.chartable_cap)
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
    _emit(args, "\n".join(lines) + "\n")
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
        fields = ["-"] * 5 + [verdict] + ["NA"] * len(CHECK_IDS)
    else:
        r = analysis.report
        class_c = str(r.class_c) if r.class_c is not None else "-"
        fields = [str(r.p), str(r.n), str(r.m), str(r.l), class_c, verdict]
        fields += [r.check(cid).status for cid in CHECK_IDS]
    return (entry.order, entry.index, entry.gid, fields)


def cmd_verify(args) -> int:
    entries = _load_entries(args)
    workers = min(args.workers, len(entries), os.cpu_count() or 1)
    columns = (entries, repeat(args.order_cap), repeat(args.chartable_cap))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_for_entry, *columns, chunksize=4))
    else:
        rows = list(map(_row_for_entry, *columns))
    rows.sort(key=lambda r: (r[0], r[1]))
    out = ["\t".join(TSV_HEADER)]
    any_fail = False
    for order, index, gid, fields in rows:
        out.append("\t".join([gid, str(order)] + fields))
        any_fail = any_fail or ("FAIL" in fields)
    _emit(args, "\n".join(out) + "\n")
    return 2 if any_fail else 0


# ---------------------------------------------------------------------------
# census / search / chartable / families


def _corpus_items(args, wanted):
    """(gid, group) for the entries whose declared order passes `wanted`;
    the others are never built, so never validated."""
    for e in sorted(_load_entries(args), key=lambda e: (e.order, e.index)):
        if wanted(e.order):
            yield e.gid, e.build(order_cap=args.order_cap)


def cmd_census(args) -> int:
    items = _corpus_items(args, lambda order: order == args.order)
    hits = census(items, args.order, args.predicate)
    text = f"census order={args.order} predicate={args.predicate}\ncount {len(hits)}\n"
    if hits:
        text += "hits: " + " ".join(hits) + "\n"
    _emit(args, text)
    return 0


def cmd_search(args) -> int:
    items = _corpus_items(args, lambda order: order <= args.max_order)
    if not args.no_families:
        families = default_family_instances(args.max_order)
        items = chain(
            items,
            ((gid, build_family(spec, order_cap=args.order_cap)) for gid, spec in families),
        )
    report = search_counterexample(items)
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
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_chartable(args) -> int:
    gid, G = _resolve_group(args)
    table = dixon_character_table(G)
    lines = [
        f"character table of {gid} (order {G.order}, {table.n_classes} classes, "
        f"exponent {table.exponent}, internal prime {table.modulus})",
        "class reps:  " + " ".join(str(int(r)) for r in table.class_reps),
        "class sizes: " + " ".join(str(int(s)) for s in table.class_sizes),
    ]
    k = table.n_classes
    cells = format_values(table.values)
    for i, deg in enumerate(table.degrees):
        lines.append(f"deg {deg}: " + "  ".join(cells[i * k : (i + 1) * k]))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_families(args) -> int:
    lines = ["family spec syntax: name:params"]
    for name, fam in FAMILIES.items():
        lines.append(f"  {name + ':' + fam.syntax:<27} {fam.doc}")
    lines += ["", f"built-in instances up to order {args.max_order}:"]
    for gid, spec in default_family_instances(args.max_order):
        lines.append(f"  {gid}")
    _emit(args, "\n".join(lines) + "\n")
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
    try:
        args = _build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (CaminaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
