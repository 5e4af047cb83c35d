"""Command-line interface behavior and output determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from camina.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_verify_same_bytes_under_optimize():
    """Invariants are checked by raising, not by assert, so -O changes nothing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["-m", "camina.cli", "verify", "--workers", "1"]
    for name in ("order8.grp", "order27.grp"):
        argv += ["--input", str(FIXTURES / name)]
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, *argv], env=env, capture_output=True, check=True
        ).stdout
        for flags in ([], ["-O"])
    )
    assert plain.count(b"\n") == 11  # header plus 5 + 5 groups
    assert plain == optimized
