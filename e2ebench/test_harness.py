"""Self-tests of the benchmark harness (not part of the package's suite).

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import references as ref  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from camina import analyze_center_pair, build_family, parse_family_spec  # noqa: E402
from tracing import NullTracer, Span, Tracer, self_time_by_name, self_times  # noqa: E402


def group(text):
    return build_family(parse_family_spec(text))


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("pass", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        Span("c", 2.0, 3.0, 1),  # grandchild: only a loses it
        Span("d", 8.0, 12.0, 0),  # sticks out of the parent: clipped to 8..10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    more = spans + [Span("a", 20.0, 21.5, None)]
    assert self_time_by_name(more)["a"] == pytest.approx(3.5)


def test_tracer_self_times_add_up_to_the_root():
    t = Tracer()
    with t.span("pass"):
        with t.span("group"):
            t.call("x", sum, range(1000))
            t.call("y", sorted, range(1000))
        t.call("x", sum, range(10))
    assert [s.parent for s in t.spans] == [None, 0, 1, 1, 0]
    root = t.spans[0].end - t.spans[0].start
    assert sum(self_times(t.spans)) == pytest.approx(root)


# ---------------------------------------------------------------------------
# the known-answer checkers reject doctored answers


def test_checker_rejects_a_doctored_verdict():
    outcome = workloads.analysis_outcome(analyze_center_pair(group("dihedral:8")))
    assert ref.check_analysis("8:3", outcome, ref.CORPUS113_POSITIVE["8:3"]) is None
    assert ref.check_analysis("8:3", outcome, ref.FALSE) is not None
    assert ref.check_analysis("8:3", outcome, ref.Positive(2, 1, 4)) is not None
    assert ref.check_analysis("8:3", outcome, ref.Positive(2, 1, 2, False)) is not None
    for doctored in (
        dict(outcome, verdict="false"),
        dict(outcome, m=2),
        dict(outcome, checks=("FAIL",) + outcome["checks"][1:]),
    ):
        assert ref.check_analysis("8:3", doctored, ref.CORPUS113_POSITIVE["8:3"])
    abelian = workloads.analysis_outcome(analyze_center_pair(group("cyclic:4")))
    assert ref.check_analysis("cyclic:4", abelian, ref.NA) is None
    assert ref.check_analysis("cyclic:4", abelian, ref.FALSE) is not None


def test_checker_rejects_a_doctored_degree_list():
    wl = workloads.ChartableWide()
    outcome = wl.run([("heisenberg:2,1", group("heisenberg:2,1"))])["heisenberg:2,1"]
    d8 = ref.TableAnswer(5, {1: 4, 2: 1}, None)
    assert ref.check_table("d8", outcome, d8) is None
    assert ref.check_table("d8", outcome, ref.TableAnswer(5, {1: 4, 2: 2}, None))
    assert ref.check_table("d8", outcome, ref.TableAnswer(5, {1: 4, 2: 1}, True))
    assert ref.check_table("d8", dict(outcome, degrees=[1] * 5), d8)
    assert ref.check_table("d8", dict(outcome, row_orthogonal=False), d8)
    assert ref.check_classes(50) is None and ref.check_classes(51)


def test_doctored_reference_makes_the_corpus_fail(monkeypatch):
    wl = workloads.Corpus113()
    outcomes = wl.run(wl.fresh(wl.setup(random.Random(0), NullTracer())))
    attempted, failures = wl.check(outcomes)
    assert attempted == 114 and failures == []
    monkeypatch.setitem(ref.CORPUS113_POSITIVE, "8:3", ref.Positive(2, 1, 4))
    assert len(wl.check(outcomes)[1]) == 1
    monkeypatch.setattr(ref, "CENSUS_32", ref.CENSUS_32 | {"32:49"})
    assert len(wl.check(outcomes)[1]) == 2


# ---------------------------------------------------------------------------
# the traced decomposition reproduces analyze_center_pair


@pytest.mark.parametrize(
    "text",
    ["dihedral:8", "quaternion:16", "extraspecial_p2:3,1", "heisenberg:3,1", "cyclic:9", "T:3,1"],
)
def test_traced_analysis_matches_analyze_center_pair(text):
    G = group(text)
    untraced = workloads._analyze(workloads.fresh(G))
    t = Tracer()
    traced = workloads.traced_analysis(t, workloads.fresh(G))
    assert traced == untraced
    names = {s.name for s in t.spans}
    if untraced["verdict"] == "true":
        assert {"characters.table", "pairs.bounds", "structure.series"} <= names
        assert t.counts["characters.tables"] == 1
        probes = [s for s in t.spans if s.name in ("structure.series", "characters.ramified")]
        assert t.probe_s == pytest.approx(sum(s.end - s.start for s in probes))
    elif untraced["verdict"] == "false":
        assert "pairs.bounds" not in names and "kernels.coset_check" in names
    else:
        assert names == {"groups.center"}


def test_traced_classify_runs_the_generator_itself():
    """The traced pass calls make_fixtures.classify_order through wrappers,
    counts its steps and puts the real functions back."""
    sys.path.insert(0, str(HERE.parent / "tools"))
    import make_fixtures as mf

    wl = workloads.Classify32()
    wl.mf = mf
    real = mf.iso_exists
    parents = mf.classify_order(mf.classify_order([mf.cyclic_table(2)], 2), 2)
    untraced = wl.run(wl.fresh(parents))["classify"]
    t = Tracer()
    traced = wl.run_traced(wl.fresh(parents), t)["classify"]
    assert traced == untraced and untraced["classes"] == 14  # the groups of order 16
    assert mf.iso_exists is real
    names = {s.name for s in t.spans}
    assert names == {"fixtures.extensions", "fixtures.assoc", "fixtures.fingerprint", "fixtures.iso"}
    assert t.counts["fixtures.classes"] == 14
    assert sum(s.name == "fixtures.iso" for s in t.spans) == t.counts["fixtures.iso_checks"]
    assert 0 < t.counts["fixtures.iso_hits"] <= t.counts["fixtures.iso_checks"]
    assert t.counts["fixtures.tables"] == sum(s.name == "fixtures.assoc" for s in t.spans)


def test_probes_are_kept_apart_from_the_overhead():
    t = Tracer()
    with t.span("pass"):
        t.call("a", sum, range(1000))
        t.probe("b", sorted, range(100000))
    probe = t.spans[2]
    assert t.probe_s == pytest.approx(probe.end - probe.start)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the comparison tool


def test_benchmark_json_is_generated_from_spec():
    assert (HERE.parent / "BENCHMARK.json").read_text() == spec.benchmark_text()


def test_spec_follows_the_naming_rules():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in spec.UNITS.values())
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert len(json.dumps(doc)) < 64 * 1024


def _run(using_numba, wall, started, seed=1, workload="corpus113"):
    stamp = {"USING_NUMBA": using_numba, "CAMINA_NO_NUMBA": ""}
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    return {
        "workload": workload,
        "seed": seed,
        "started": started,
        "trace": 0,
        "stamp": stamp,
        "metrics": metrics,
    }


def _side(walls, starts, **kw):
    return [_run(False, w, t, seed=i, **kw) for i, (w, t) in enumerate(zip(walls, starts))]


def test_compare_refuses_mixed_kernel_paths_and_seeds():
    code, lines = compare.compare([_run(False, 3.0, 0)], [_run(True, 1.0, 1)])
    assert code == 2 and "kernel paths differ" in lines[0]
    code, lines = compare.compare([_run(False, 3.0, 0)], [_run(False, 3.0, 1, seed=2)])
    assert code == 2 and "seeds differ" in lines[0]


def test_compare_gives_a_verdict_only_on_steady_alternated_runs():
    base_t, new_t = [0, 2, 4], [1, 3, 5]
    steady = _side([3.0, 3.05, 3.1], base_t)
    assert compare.compare(steady, _side([3.0, 3.1, 3.1], new_t))[0] == 0
    code, lines = compare.compare(steady, _side([4.0, 4.0, 4.1], new_t))
    assert code == 1 and lines[0].endswith("WORSE")
    # one run a side, too much spread, or one side after the other: no verdict
    code, lines = compare.compare(steady[:1], _side([4.0], [1]))
    assert code == 3 and "need 3 runs" in lines[0]
    code, lines = compare.compare(_side([2.0, 3.0, 4.0], base_t), _side([4.0] * 3, new_t))
    assert code == 3 and "spread" in lines[0]
    assert compare.compare(_side([4.0, 5.0, 6.0], base_t), _side([3.0, 3.5, 2.0], new_t))[0] == 0
    code, lines = compare.compare(steady, _side([4.0, 4.0, 4.1], [10, 11, 12]))
    assert code == 3 and "not alternated" in lines[0]
