"""The four workloads: set-up, the timed pass, the traced pass and the checks.

Importing this module imports camina, so the child process takes its
set-up clock before the import.  Every call into the package from set-up
and from the traced pass goes through `tracer.call`, which puts a span
around it; the untraced pass makes the plain user-facing calls.

The traced pass warms each group's caches in the order
`analyze_center_pair` uses them (center, conjugacy classes, the three
criteria, derived subgroup, class constants, character table, bounds), so
every layer span measures that layer's own work.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import camina.cli
from camina import (
    FiniteGroup,
    analyze_center_pair,
    build_family,
    camina_by_centralizers,
    camina_by_classes,
    camina_by_commutators,
    center,
    class_mult_coefficients,
    default_family_instances,
    derived_subgroup,
    dixon_character_table,
    is_camina_group,
    lower_central_series,
    parse_corpus,
    parse_family_spec,
    quotient_exponent_over_center,
    upper_central_series,
    verify_bounds,
    verify_fully_ramified,
)
from camina.characters import check_column_orthogonality, check_row_orthogonality
from camina.errors import EquivalenceViolation
from camina.pairs import CHECK_IDS, CaminaVerdict, CenterPairAnalysis
from camina.structure import is_prime_power

import references as ref
from spec import CHAR_TABLE_CAP

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_FILES = ("order8.grp", "order16.grp", "order27.grp", "order32.grp")
TOOLS = ROOT / "tools"

LARGE2048_SPECS = (
    "dihedral:2048",
    "quaternion:1024",
    "cyclic:2048",
    "elemab:2,11",
    "T:2,3",
    "heisenberg:2,3",
    "heisenberg:3,2",
    "heisenberg:11,1",
)
CHARTABLE_SPECS = ("heisenberg:2,3", "heisenberg:3,2", "T:5,1")
RAMIFIED_CHECKED = {"heisenberg:2,3", "heisenberg:3,2"}

MB = float(1 << 20)


def fresh(G: FiniteGroup) -> FiniteGroup:
    """The same table with empty caches, so every pass does the full work."""
    return FiniteGroup(G.mul, G.inv, G.labels, G.name)


def drain(items: list):
    """Hand out and drop the items one at a time, as `camina verify` does.

    This drops the benchmark's own reference to a finished group.  A group
    with a character table still lives on until the cyclic garbage
    collector runs, because the table refers to the group and the group
    caches the table; so peak RSS on `chartable_wide` does depend on the
    order the seed picks (see README.md).
    """
    while items:
        yield items.pop()


def _guarded(fn, *args):
    """Run one item; an exception becomes an error outcome, which fails."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        return {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# center-pair analysis: corpus113 and large2048


def analysis_outcome(a: CenterPairAnalysis) -> dict:
    out = {"verdict": "na", "camina_group": None, "witness": None, "checks": None}
    if a.applicable:
        v = a.verdict
        out.update(
            verdict="true" if v.holds else "false",
            camina_group=v.is_camina_group,
            witness=v.witness,
        )
    if a.report is not None:
        r = a.report
        out.update(p=r.p, m=r.m, n=r.n, l=r.l, class_c=r.class_c)
        out["checks"] = tuple(r.check(cid).status for cid in CHECK_IDS)
    return out


def _analyze(G):
    return analysis_outcome(analyze_center_pair(G, char_table_cap=CHAR_TABLE_CAP))


def _series_probe(G):
    """The structure layer alone; verify_bounds repeats this work."""
    upper_central_series(G)
    lower_central_series(G)
    quotient_exponent_over_center(G)


def traced_analysis(t, G) -> dict:
    """analyze_center_pair taken apart into one span per layer call."""
    t.count("groups.table_mb", 4 * G.order * G.order / MB)
    Z = t.call("groups.center", center, G)
    if Z.order == 1 or Z.is_whole_group():
        return analysis_outcome(CenterPairAnalysis(G, False, None, None))
    t.call("kernels.conjugacy", G.conjugacy_data)
    b1, w1 = t.call("kernels.coset_check", camina_by_classes, G, Z)
    b2, w2 = t.call("kernels.commutator_check", camina_by_commutators, G, Z)
    b3, w3 = t.call("pairs.centralizers", camina_by_centralizers, G, Z)
    if not b1 == b2 == b3:
        raise EquivalenceViolation(f"criteria disagree on {G!r}")
    t.call("groups.derived", derived_subgroup, G)
    camina_group = t.call("pairs.camina_group", is_camina_group, G)
    verdict = CaminaVerdict(Z, b1, b2, b3, w1 or w2 or w3, camina_group)
    report = None
    if b1:
        t.count("pairs.positive")
        t.probe("structure.series", _series_probe, G)
        pk = is_prime_power(G.order // Z.order)
        if pk is not None and pk[1] % 2 == 0 and G.order <= CHAR_TABLE_CAP:
            t.call("kernels.class_products", class_mult_coefficients, G)
            table = t.call("characters.table", dixon_character_table, G)
            # verify_bounds checks full ramification again; it is not cached.
            t.probe("characters.ramified", verify_fully_ramified, G, Z, table)
            _count_table(t, table)
        report = t.call(
            "pairs.bounds", verify_bounds, G, verdict, char_table_cap=CHAR_TABLE_CAP
        )
    return analysis_outcome(CenterPairAnalysis(G, True, verdict, report))


def _count_table(t, table) -> None:
    k = table.n_classes
    t.count("characters.tables")
    t.count("characters.classes_sum", k)
    t.count("characters.prime_sum", table.modulus)
    t.count("characters.consts_mb", 8 * k**3 / MB)


class AnalysisWorkload:
    """analyze_center_pair(G, char_table_cap=256) over a list of groups."""

    def __init__(self, load, expected, totals_check=None):
        self._load = load
        self._expected = expected
        self._totals_check = totals_check

    def setup(self, rng: random.Random, t) -> list:
        items = self._load(t)
        t.count("corpus.groups", len(items))
        rng.shuffle(items)
        return items

    def fresh(self, items):
        return [(gid, fresh(G)) for gid, G in items]

    def run(self, items) -> dict:
        return {gid: _guarded(_analyze, G) for gid, G in drain(items)}

    def run_traced(self, items, t) -> dict:
        out = {}
        for gid, G in drain(items):
            with t.span("group"):
                out[gid] = _guarded(traced_analysis, t, G)
        return out

    def check(self, outcomes: dict) -> tuple[int, list[str]]:
        failures = []
        for gid, o in outcomes.items():
            msg = o.get("error") or ref.check_analysis(gid, o, self._expected(gid))
            if msg:
                failures.append(f"{gid}: {msg}" if "error" in o else msg)
        attempted = len(outcomes)
        if self._totals_check is not None:
            attempted += 1
            errors = [o for o in outcomes.values() if "error" in o]
            msg = "errors in the corpus" if errors else self._totals_check(outcomes)
            if msg:
                failures.append(msg)
        return attempted, failures

    def traced_extra(self, t) -> tuple[int, list[str]]:
        return 0, []


def _load_corpus113(t) -> list:
    items = []
    for name in FIXTURE_FILES:
        text = (FIXTURES / name).read_text()
        entries = t.call("corpus.parse", parse_corpus, text, validate=False)
        items += [(e.gid, t.call("corpus.build", e.build)) for e in entries]
    for gid, spec in default_family_instances(625):
        items.append((gid, t.call("corpus.build", build_family, spec)))
    return items


def _load_specs(specs):
    def load(t) -> list:
        return [
            (s, t.call("corpus.build", build_family, t.call("corpus.parse", parse_family_spec, s)))
            for s in specs
        ]

    return load


class Corpus113(AnalysisWorkload):
    def __init__(self):
        super().__init__(
            _load_corpus113, ref.corpus113_expected, ref.check_corpus113_totals
        )

    def traced_extra(self, t) -> tuple[int, list[str]]:
        """`camina verify` over the fixture files with one and two workers."""
        outputs = {}
        failures = []
        for workers in (1, 2):
            argv = ["verify", "--workers", str(workers)]
            argv += ["--chartable-cap", str(CHAR_TABLE_CAP)]
            for name in FIXTURE_FILES:
                argv += ["--input", str(FIXTURES / name)]
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = t.call(f"cli.verify_w{workers}", camina.cli.main, argv)
            outputs[workers] = buf.getvalue()
            if code != 0:
                failures.append(f"camina verify --workers {workers} exited {code}")
        rows = [line.split("\t") for line in outputs[1].splitlines()[1:]]
        positives = {row[0] for row in rows if row[7] == "true"}
        want = {gid for gid in ref.CORPUS113_POSITIVE if gid.split(":")[0].isdigit()}
        if positives != want or len(rows) != sum(ref.FIXTURE_COUNTS.values()):
            failures.append(f"camina verify positives {sorted(positives)}")
        if outputs[1] != outputs[2]:
            failures.append("camina verify output differs between 1 and 2 workers")
        return 2, failures


def large2048() -> AnalysisWorkload:
    return AnalysisWorkload(_load_specs(LARGE2048_SPECS), ref.LARGE2048.__getitem__)


# ---------------------------------------------------------------------------
# chartable_wide


def _table_outcome(table, row, col, ramified) -> dict:
    return {
        "classes": table.n_classes,
        "degrees": list(table.degrees),
        "modulus": table.modulus,
        "row_orthogonal": row,
        "column_orthogonal": col,
        "fully_ramified": ramified,
    }


def _chartable(gid, G) -> dict:
    table = dixon_character_table(G)
    row = check_row_orthogonality(table)
    col = check_column_orthogonality(table)
    ramified = None
    if gid in RAMIFIED_CHECKED:
        ramified = verify_fully_ramified(G, center(G), table)[0]
    return _table_outcome(table, row, col, ramified)


def _traced_chartable(t, gid, G) -> dict:
    t.count("groups.table_mb", 4 * G.order * G.order / MB)
    t.call("kernels.conjugacy", G.conjugacy_data)
    t.call("kernels.class_products", class_mult_coefficients, G)
    table = t.call("characters.table", dixon_character_table, G)
    _count_table(t, table)
    row = t.call("characters.orthogonality", check_row_orthogonality, table)
    col = t.call("characters.orthogonality", check_column_orthogonality, table)
    ramified = None
    if gid in RAMIFIED_CHECKED:
        Z = t.call("groups.center", center, G)
        ramified = t.call("characters.ramified", verify_fully_ramified, G, Z, table)[0]
    return _table_outcome(table, row, col, ramified)


class ChartableWide(AnalysisWorkload):
    def __init__(self):
        super().__init__(_load_specs(CHARTABLE_SPECS), None)

    def run(self, items) -> dict:
        return {gid: _guarded(_chartable, gid, G) for gid, G in drain(items)}

    def run_traced(self, items, t) -> dict:
        out = {}
        for gid, G in drain(items):
            with t.span("group"):
                out[gid] = _guarded(_traced_chartable, t, gid, G)
        return out

    def check(self, outcomes: dict) -> tuple[int, list[str]]:
        failures = []
        for gid, o in outcomes.items():
            msg = o.get("error") or ref.check_table(gid, o, ref.CHARTABLE_WIDE[gid])
            if msg:
                failures.append(msg)
        return len(outcomes), failures


# ---------------------------------------------------------------------------
# classify32


def _classes_outcome(reps) -> dict:
    digest = hashlib.sha256()
    for G in reps:
        digest.update(G.mul.tobytes())
    return {"classes": len(reps), "digest": digest.hexdigest()}


class Classify32:
    """make_fixtures.classify_order over the 13 order-16 parents other than E16."""

    def setup(self, rng: random.Random, t) -> list:
        if str(TOOLS) not in sys.path:
            sys.path.insert(0, str(TOOLS))
        import make_fixtures as mf

        self.mf = mf
        with t.span("fixtures.parents"):
            groups = [mf.cyclic_table(2)]
            for _ in range(3):  # orders 4, 8 and 16
                groups = mf.classify_order(groups, 2)
        parents = [
            G
            for G in groups
            if not (G.is_abelian() and int(G.element_orders().max()) == 2)
        ]
        rng.shuffle(parents)
        return parents

    def fresh(self, parents):
        return [fresh(G) for G in parents]

    def run(self, parents) -> dict:
        classify = self.mf.classify_order
        return {"classify": _guarded(lambda: _classes_outcome(classify(parents, 2)))}

    def run_traced(self, parents, t) -> dict:
        return {"classify": _guarded(self._traced_classify, parents, t)}

    def _traced_classify(self, parents, t) -> dict:
        """The generator's own classify_order, with a span around each of
        the steps it looks up from its module: those are replaced by
        traced wrappers for the call and put back afterwards."""
        mf = self.mf
        real = {
            name: getattr(mf, name)
            for name in ("extensions_of", "_assoc_ok", "fingerprint", "iso_exists")
        }

        def extensions_of(H, p):
            tables = t.call("fixtures.extensions", real["extensions_of"], H, p)
            t.count("fixtures.tables", len(tables))
            return tables

        def assoc_ok(table):
            return t.call("fixtures.assoc", real["_assoc_ok"], table)

        def fingerprint(G):
            t.count("groups.table_mb", 4 * G.order * G.order / MB)
            return t.call("fixtures.fingerprint", real["fingerprint"], G)

        def iso_exists(A, B):
            t.count("fixtures.iso_checks")
            found = t.call("fixtures.iso", real["iso_exists"], A, B)
            t.count("fixtures.iso_hits", int(found))
            return found

        wrappers = {
            "extensions_of": extensions_of,
            "_assoc_ok": assoc_ok,
            "fingerprint": fingerprint,
            "iso_exists": iso_exists,
        }
        for name, fn in wrappers.items():
            setattr(mf, name, fn)
        try:
            reps = mf.classify_order(parents, 2)
        finally:
            for name, fn in real.items():
                setattr(mf, name, fn)
        t.count("fixtures.classes", len(reps))
        return _classes_outcome(reps)

    def check(self, outcomes: dict) -> tuple[int, list[str]]:
        o = outcomes["classify"]
        msg = o.get("error") or ref.check_classes(o["classes"])
        return 1, [msg] if msg else []

    def traced_extra(self, t) -> tuple[int, list[str]]:
        return 0, []


WORKLOADS = {
    "corpus113": Corpus113,
    "large2048": large2048,
    "chartable_wide": ChartableWide,
    "classify32": Classify32,
}
