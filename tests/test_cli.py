"""Command-line interface behavior and output determinism."""

import argparse
import concurrent.futures
import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import camina.pairs
from camina import cli
from camina.cli import main
from camina.corpus import CorpusEntry, default_family_instances
from camina.groups import MAX_ORDER_CAP
from camina.pairs import BoundReport, SearchFinding, SearchReport

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_family_quaternion(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "quaternion:8")
    assert code == 0
    assert "center pair verdict: true" in out
    assert "p=2 n=2 m=1 l=0" in out


def test_analyze_family_cyclic_not_applicable(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "cyclic:5")
    assert code == 0
    assert "not applicable" in out
    assert "abelian" in out


def test_analyze_fixture_32_6(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--id",
        "32:6",
        "--input",
        str(FIXTURES / "order32.grp"),
    )
    assert code == 0
    assert "center pair verdict: true" in out
    assert "|Z(G)| = 2" in out
    assert "FAIL" not in out


def test_analyze_unknown_id(capsys):
    code, _, err = run(
        capsys, "analyze", "--id", "32:99", "--input", str(FIXTURES / "order32.grp")
    )
    assert code == 1
    assert "error" in err


def test_analyze_without_group(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1


def test_verify_tsv(tmp_path, capsys):
    out_path = tmp_path / "report.tsv"
    code, _, _ = run(
        capsys,
        "verify",
        "--workers",
        "1",
        "--input",
        str(FIXTURES / "order8.grp"),
        "--report",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 6  # header + 5 groups
    header = lines[0].split("\t")
    assert header[:8] == ["group_id", "order", "p", "n", "m", "l", "class_c", "verdict"]
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert rows["8:3"][7] == "true"
    assert rows["8:4"][7] == "true"
    assert rows["8:1"][7] == "na"
    assert set(rows["8:1"][8:]) == {"NA"}  # no check ran
    assert "FAIL" not in out_path.read_text()


def test_verify_deterministic_across_workers(tmp_path, capsys):
    paths = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        p = tmp_path / f"{tag}.tsv"
        code, _, _ = run(
            capsys,
            "verify",
            "--workers",
            workers,
            "--input",
            str(FIXTURES / "order27.grp"),
            "--report",
            str(p),
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1] == paths[2]


# ---------------------------------------------------------------------------
# exit code 2 (a FAIL) and the strict-counterexample block; no real check
# fails on these groups, so the failure is forced


@pytest.fixture
def t11_fails(monkeypatch):
    """Makes the conclusion of T1.1 false for every group with a report."""
    checks = tuple(
        dataclasses.replace(c, conclusion=lambda v: False) if c.check_id == "T1.1" else c
        for c in camina.pairs.CHECKS
    )
    monkeypatch.setattr(camina.pairs, "CHECKS", checks)


def test_analyze_with_a_fail_exits_two(capsys, t11_fails):
    code, out, err = run(capsys, "analyze", "--family", "quaternion:8")
    assert code == 2 and err == ""
    assert "\n  T1.1      FAIL\n" in out
    assert out.count("FAIL") == 1


def test_verify_with_a_fail_exits_two(capsys, t11_fails):
    # one worker: a worker process would not see the patched catalog
    argv = ["verify", "--workers", "1", "--input", str(FIXTURES / "order8.grp")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    header, *rows = [line.split("\t") for line in out.splitlines()]
    fails = {
        (row[0], header[i]) for row in rows for i, v in enumerate(row) if v == "FAIL"
    }
    assert fails == {("8:3", "T1.1"), ("8:4", "T1.1")}


def test_search_prints_the_strict_counterexamples(monkeypatch, capsys):
    report = BoundReport(p=2, n=2, m=2, l=0, class_c=2, quotient_exponent_n=1)
    found = SearchReport(1, [SearchFinding("8:3", 8, report)], [])
    monkeypatch.setattr(cli, "search_counterexample", lambda items: found)
    code, out, _ = run(capsys, "search", "--no-families")
    assert code == 0
    assert out == (
        "scanned 1 groups of order <= 2048\n"
        "STRICT COUNTEREXAMPLES (|Z|^2 > |G:Z|):\n"
        "  8:3 order=8 m=2 n=2\n"
    )


# sha256 of the stdout of `camina analyze --family SPEC` and of `camina
# verify --workers 1` over the four fixture files, as printed when the
# invariants walked every noncentral element; walking one representative
# per conjugacy class must not change a byte.  The verify pin has NA in
# every check column of its 64 `na` and `false` rows, where no check ran.
ANALYZE_SHA256 = {
    "heisenberg:7": "efc47ab630166fe8858c4927506ddfb65e05ed3611208dc7a6a7d0bfe50c5515",
    "heisenberg:2,3": (
        "b8d68fa2251891dd8016b2721928e9ef5322220d39745623c51587812f7b7f4b"
    ),
    "heisenberg:3,2": (
        "11f3a79f17153b9f66ebbfdd2d4159d6accdfb32a24ab21e0fe0a2406e5e5093"
    ),
    "heisenberg:11,1": (
        "08050aac4f4941e2e0e113c5105ce395eacd6c55fa6eeb0d2ca074c99b09a56a"
    ),
    "extraspecial_p:3,2": (
        "e12667d7aa057142ddbf9d390a2c8136b7325da07b6e645e374697ccc04bbb32"
    ),
}
VERIFY_FIXTURES_SHA256 = (
    "13dbbb7e0886e6ad0f0d2279783f48e545aea6b22d170261184c10346f126c90"
)


@pytest.mark.parametrize("spec", sorted(ANALYZE_SHA256))
def test_analyze_output_is_pinned(capsys, spec):
    code, out, _ = run(capsys, "analyze", "--family", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[spec]


# sha256 of the stdout of `camina analyze --family SPEC`, concatenated
# over every default_family_instances(2048) spec in order, as printed when
# the centralizer criterion built the quotient group G/Z: the negative
# verdicts and their witnesses included.
ANALYZE_FAMILIES_SHA256 = (
    "3d1c76bed5252b66d9b4b85b04d5ff10dee22346e2c6ae02e57f82203ea30207"
)


def test_analyze_family_instances_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for spec, _ in default_family_instances(2048):
        code, out, _ = run(capsys, "analyze", "--family", spec)
        assert code == 0, spec
        digest.update(out.encode())
    assert digest.hexdigest() == ANALYZE_FAMILIES_SHA256


def test_verify_fixture_output_is_pinned(capsys):
    argv = ["verify", "--workers", "1"]
    for name in ("order8.grp", "order16.grp", "order27.grp", "order32.grp"):
        argv += ["--input", str(FIXTURES / name)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FIXTURES_SHA256


def test_census_cli(capsys):
    code, out, _ = run(
        capsys,
        "census",
        "--order",
        "32",
        "--predicate",
        "center-pair-not-camina-group",
        "--input",
        str(FIXTURES / "order32.grp"),
    )
    assert code == 0
    assert "count 5" in out
    assert "32:6 32:7 32:8 32:43 32:44" in out


def test_search_cli(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--max-order",
        "32",
        "--no-families",
        "--input",
        str(FIXTURES / "order8.grp"),
        "--input",
        str(FIXTURES / "order27.grp"),
    )
    assert code == 0
    assert "no strict counterexample" in out
    for gid in ("8:3", "8:4", "27:3", "27:4"):
        assert gid in out


def test_search_with_families_output_is_pinned(capsys):
    code, out, _ = run(
        capsys, "search", "--max-order", "27", "--input", str(FIXTURES / "order8.grp")
    )
    assert code == 0
    assert out == (
        "scanned 28 groups of order <= 27\n"
        "no strict counterexample\n"
        "equality cases (|Z|^2 = |G:Z|): 8:3, 8:4, dihedral:8, quaternion:8, "
        "extraspecial_p:3,1, extraspecial_p2:3,1, heisenberg:2,1, heisenberg:3,1\n"
    )


@pytest.mark.parametrize("order, hits", [(8, "8:3 8:4"), (32, "32:49 32:50")])
def test_census_camina_group_output_is_pinned(capsys, order, hits):
    code, out, _ = run(
        capsys,
        "census",
        "--order",
        str(order),
        "--predicate",
        "camina-group",
        "--input",
        str(FIXTURES / f"order{order}.grp"),
    )
    assert code == 0
    assert out == (
        f"census order={order} predicate=camina-group\ncount 2\nhits: {hits}\n"
    )


def test_chartable_cli(capsys):
    code, out, _ = run(capsys, "chartable", "--family", "quaternion:8")
    assert code == 0
    assert "5 classes" in out
    degrees = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("deg ")]
    assert degrees == ["deg 1", "deg 1", "deg 1", "deg 1", "deg 2"]


def test_families_cli(capsys):
    code, out, _ = run(capsys, "families", "--max-order", "625")
    assert code == 0
    assert "T:5,1" in out
    assert "extraspecial_p2:3,1" in out


def test_analyze_report_flag(tmp_path, capsys):
    out_path = tmp_path / "analysis.txt"
    code, out, _ = run(
        capsys, "analyze", "--family", "heisenberg:3", "--report", str(out_path)
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert "center pair verdict: true" in text


def test_order_cap_is_enforced(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--order-cap",
        "16",
        "--input",
        str(FIXTURES / "order32.grp"),
    )
    assert code == 1
    assert "cap" in err


def test_verify_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty.grp"
    empty.write_text("# nothing here\n")
    out_path = tmp_path / "empty.tsv"
    code, _, _ = run(
        capsys, "verify", "--input", str(empty), "--report", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_parse_error_is_operational(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group 2 1 X\ndegree 2\nwhat\nend\n")
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 1
    assert "line 3" in err


@pytest.mark.parametrize(
    "spec",
    [
        "elemab:2",  # too few parameters
        "quaternion:8,1",  # too many
        "heisenberg:2,0",  # would be the trivial group
        "elemab:2,-1",
        "elemab:2,40",  # order 2^40, far past the cap
        "T:4",  # not prime
        "nosuch:3",
    ],
)
def test_bad_family_spec_is_one_error_line(capsys, spec):
    code, out, err = run(capsys, "analyze", "--family", spec)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        # rejected at parse time, before the identity of degree 10^8 is built
        ("group 1 1 x\ndegree 99999999\nend\n", "line 2: degree 99999999 exceeds"),
        ("group 2 1 C2\ndegree 2\ngen 1 3\nend\n", "line 3: images (1, 3) are not"),
        # validated as Python ints, before any narrowing to a fixed width
        (
            "group 2 1 C2\ndegree 2\ngen 99999999999999999999 1\nend\n",
            "line 3: images (99999999999999999999, 1) are not a bijection on 1..2",
        ),
    ],
)
def test_bad_corpus_entry_is_one_error_line(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.grp"
    bad.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(bad))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["census", "--order", "2"],
        ["search"],
        ["analyze", "--id", "2:1"],
    ],
    ids=["verify", "census", "search", "analyze"],
)
@pytest.mark.parametrize(
    "data, line",
    [
        (b"group 2 1 C2\ndegree 2\ngen 2 1\nend\n\xff\n", 5),
        (bytes(range(128, 256)), 1),
        (b"# caf\xc3\xa9\n\ngroup 2 1 C\xe9\n", 3),
        (b"group 2 1 C2\r\ndegree 2\rgen 2 1\r\xff\rend\r", 4),
    ],
    ids=["last-line", "every-byte", "latin-1-name", "cr-endings"],
)
def test_corpus_that_is_not_utf8_is_one_error_line(tmp_path, capsys, argv, data, line):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(data)
    code, out, err = run(capsys, *argv, "--input", str(bad))
    assert code == 1
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: line {line}: ")
    assert "not UTF-8" in lines[0]


def _plain_and_optimized(*argv):
    """stdout of `camina ARGV` run without and with python -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return tuple(
        subprocess.run(
            [sys.executable, *flags, "-m", "camina.cli", *argv],
            env=env,
            capture_output=True,
            check=True,
        ).stdout
        for flags in ([], ["-O"])
    )


def test_verify_same_bytes_under_optimize():
    """Invariants are checked by raising, not by assert, so -O changes nothing."""
    argv = ["verify", "--workers", "1"]
    for name in ("order8.grp", "order27.grp"):
        argv += ["--input", str(FIXTURES / name)]
    plain, optimized = _plain_and_optimized(*argv)
    assert plain.count(b"\n") == 11  # header plus 5 + 5 groups
    assert plain == optimized


def test_chartable_same_bytes_under_optimize():
    plain, optimized = _plain_and_optimized("chartable", "--family", "heisenberg:3")
    assert plain.count(b"\n") == 14  # header, reps, sizes, 11 characters
    assert plain == optimized


# ---------------------------------------------------------------------------
# option surface


def _subcommand_options() -> dict[str, list[str]]:
    """{subcommand: its options in declaration order}, read off the parser."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            a.option_strings[-1]
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }


def test_each_subcommand_declares_only_what_it_reads():
    options = _subcommand_options()
    assert sum(len(opts) for opts in options.values()) == 28
    assert options["families"] == ["--report", "--max-order"]
    assert "--workers" in options["verify"]


def test_readme_lists_each_subcommands_options():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M)
    listed = {name: re.findall(r"`([^`]+)`", opts) for name, opts in rows}
    assert listed == _subcommand_options()


REMOVED_OPTIONS = [
    ("analyze", "--workers"),
    ("census", "--workers"),
    ("search", "--workers"),
    ("chartable", "--workers"),
    ("census", "--chartable-cap"),
    ("search", "--chartable-cap"),
    ("chartable", "--chartable-cap"),
    ("families", "--input"),
    ("families", "--order-cap"),
    ("families", "--workers"),
    ("families", "--chartable-cap"),
]
BASE_ARGV = {
    "analyze": ["--family", "quaternion:8"],
    "census": ["--order", "8"],
    "search": ["--max-order", "8"],
    "chartable": ["--family", "quaternion:8"],
    "families": [],
}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([command, *BASE_ARGV[command], option, "2"], f"unrecognized arguments: {option}")
        for command, option in REMOVED_OPTIONS
    ]
    + [
        (["--bogus"], "required: command"),
        (["verify", "--workers", "x"], "invalid int value: 'x'"),
        ([], "required: command"),
    ]
    + [
        (argv, f"argument {argv[-2]}: must be at least {low}, got {argv[-1]}")
        for argv, low in [
            (["analyze", "--family", "quaternion:8", "--chartable-cap", "-3"], 0),
            (["verify", "--chartable-cap", "-1"], 0),
            (["analyze", "--family", "quaternion:8", "--order-cap", "0"], 1),
            (["verify", "--order-cap", "-8"], 1),
            (["verify", "--workers", "0"], 1),
            (["census", "--order", "0"], 1),
            (["search", "--max-order", "-5"], 1),
            (["search", "--max-order", "0"], 1),
            (["families", "--max-order", "0"], 1),
        ]
    ]
    + [
        (
            ["analyze", "--family", "elemab:2,16", "--order-cap", "99999999999"],
            f"argument --order-cap: must be at most {MAX_ORDER_CAP}, got 99999999999",
        ),
        (["verify", "--order-cap", str(MAX_ORDER_CAP + 1)], "must be at most"),
    ],
)
def test_usage_error_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: camina" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# resources


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, cpus, started",
    [("64", 8, [5]), ("3", 8, [3]), ("64", 2, [2]), ("64", 1, []), ("1", 8, [])],
)
def test_verify_workers_are_capped(monkeypatch, capsys, workers, cpus, started):
    """At most one worker per entry and per CPU; one worker runs serially."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "created", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ["verify", "--workers", workers, "--input", str(FIXTURES / "order8.grp")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("\n") == 6  # header + 5 groups
    assert _RecordingExecutor.created == started


def test_import_leaves_the_process_pool_unloaded():
    """The pool's module is imported by a verify that starts a pool, not by
    every command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = "import sys, camina.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


def test_search_keeps_at_most_two_corpus_groups_alive(monkeypatch, capsys):
    refs = []
    most_alive = 0
    real_build = CorpusEntry.build

    def build(entry, order_cap):
        nonlocal most_alive
        G = real_build(entry, order_cap)
        refs.append(weakref.ref(G))
        most_alive = max(most_alive, sum(r() is not None for r in refs))
        return G

    monkeypatch.setattr(CorpusEntry, "build", build)
    argv = ["search", "--no-families"]
    for name in ("order16.grp", "order32.grp"):
        argv += ["--input", str(FIXTURES / name)]
    gc.disable()
    try:
        code, out, _ = run(capsys, *argv)
    finally:
        gc.enable()
    assert code == 0
    assert out.startswith("scanned 65 groups")
    assert len(refs) == 65 and most_alive == 2


def test_zero_chartable_cap_is_accepted(capsys):
    code, out, _ = run(
        capsys, "analyze", "--family", "heisenberg:7", "--chartable-cap", "0"
    )
    assert code == 0
    assert "center pair verdict: true" in out
    assert "\n  L2.4      SKIPPED\n" in out


@pytest.mark.parametrize(
    "argv, files, built",
    [
        (["census", "--order", "8"], ("order8.grp", "order32.grp"), 5),
        (
            ["search", "--no-families", "--max-order", "8"],
            ("order16.grp", "order32.grp"),
            0,
        ),
    ],
)
def test_corpus_entries_outside_the_order_filter_are_not_built(
    monkeypatch, capsys, argv, files, built
):
    gids = []
    real_build = CorpusEntry.build

    def build(entry, order_cap):
        gids.append(entry.gid)
        return real_build(entry, order_cap)

    monkeypatch.setattr(CorpusEntry, "build", build)
    for name in files:
        argv = argv + ["--input", str(FIXTURES / name)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(gids) == built
    assert all(gid.startswith("8:") for gid in gids)


# ---------------------------------------------------------------------------
# argv fuzz: every argv ends in exit 0, 1 or 2, never in an exception

# Values an option may take, as (usable, refused) pools, and corpus files.
# Every accepted group order is at most 2048: each spec below is either
# that small or refused before anything is allocated (a parameter above
# the cap, or an order above MAX_ORDER_CAP).
FUZZ_INTS = (
    ["1", "2", "8", "27", "2048", str(MAX_ORDER_CAP), "99999999999"],
    ["-5", "-1", "0", str(MAX_ORDER_CAP + 1), "9" * 40, "x", "1.5", "", "0x10"],
)
FUZZ_SPECS = (
    ["quaternion:8", "heisenberg:3", "T:2,1", "cyclic:5", "extraspecial_p2:3",
     "dihedral:2048"],
    ["quaternion", "quaternion:", ":8", "", "nosuch:3", "quaternion:x", "T:3,1,1",
     "heisenberg:3,,1", "dihedral:7", "elemab:4,2", "cyclic:-3", "cyclic:0",
     "heisenberg:2,0", "T:4", "elemab:2,14", "elemab:2,99999999999",
     "cyclic:" + "9" * 40],
)  # fmt: skip
FUZZ_IDS = (["8:3", "27:4"], ["8:9", "32:6", "x", "", "8:", "99999999999:1"])
FUZZ_PREDICATES = (sorted(camina.pairs.PREDICATES), ["bogus", ""])
FUZZ_FILES = {
    "malformed.grp": b"group 2 1 C2\ndegree 2\nwhat\nend\n",
    "latin1.grp": b"group 2 1 C\xe9\n",
    "huge-degree.grp": b"group 1 1 x\ndegree 99999999\nend\n",
    "wrong-order.grp": b"group 3 1 C2\ndegree 2\ngen 2 1\nend\n",
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """(corpus inputs, report targets), each as (usable, refused) pools."""
    root = tmp_path_factory.mktemp("argv")
    for name, data in FUZZ_FILES.items():
        (root / name).write_bytes(data)
    (root / "empty.grp").write_bytes(b"")
    good = [str(FIXTURES / "order8.grp"), str(FIXTURES / "order27.grp")]
    good.append(str(root / "empty.grp"))
    bad = [str(root / name) for name in FUZZ_FILES]
    bad += [str(root / "missing.grp"), str(root)]
    reports = ([str(root / "report.txt")], [str(root), str(root / "no" / "r.txt")])
    return (good, bad), reports


@st.composite
def _argv(draw, inputs, reports):
    """A subcommand (mostly a real one), up to four options (mostly its
    own), each value usable or refused, sometimes missing."""
    options = _subcommand_options()
    values = {
        "--input": inputs,
        "--report": reports,
        "--order-cap": FUZZ_INTS,
        "--chartable-cap": FUZZ_INTS,
        "--workers": FUZZ_INTS,
        "--order": FUZZ_INTS,
        "--max-order": FUZZ_INTS,
        "--id": FUZZ_IDS,
        "--family": FUZZ_SPECS,
        "--predicate": FUZZ_PREDICATES,
        "--no-families": None,
        "-h": None,
        "--bogus": None,
    }  # a KeyError here: a new option needs values
    every = sorted(values)
    command = draw(st.sampled_from(sorted(options)))
    argv = [command] if draw(st.integers(0, 7)) else draw(st.sampled_from([[], ["x"]]))
    for _ in range(draw(st.integers(0, 4))):
        own = draw(st.integers(0, 3)) > 0
        option = draw(st.sampled_from(options[command] if own else every))
        argv.append(option)
        if values[option] and draw(st.integers(0, 9)):  # sometimes no value
            usable, refused = values[option]
            argv.append(draw(st.sampled_from(usable if draw(st.booleans()) else refused)))
    return argv


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_argv_fuzz_exits_0_1_or_2(fuzz_paths, data):
    argv = data.draw(_argv(*fuzz_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        # verify maps in-process: the fuzz is about argv, not workers
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        mp.setattr(_RecordingExecutor, "created", [])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's --help; main lets it through
                assert {"-h", "--help"} & set(argv)
                code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
