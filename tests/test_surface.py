"""Every public name has a user outside the tests, or a stated reason;
every definition is named somewhere besides itself; shipped code
checks its invariants by raising; and the benchmark harness's own tests
pass against the code as it stands.

A name in `camina.__all__` passes when it appears, as a whole word, in the
CLI (`src/camina/cli.py`), in `tools/` or in `e2ebench/`; otherwise it
needs an entry in `KEPT`, and only then.  Every test but the last only
reads files.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import camina

ROOT = Path(__file__).resolve().parent.parent
USERS = [ROOT / "src" / "camina" / "cli.py"]
for folder in ("tools", "e2ebench"):
    USERS += sorted((ROOT / folder).glob("*.py"))
WORD = re.compile(r"\w+")

KEPT = {
    "BoundCheck": "the type of each check in a BoundReport",
    "BoundReport": "returned by verify_bounds and analyze_center_pair",
    "SearchReport": "returned by search_counterexample",
    "CentralSeries": "returned by lower_central_series and upper_central_series",
    "CharacterTable": "returned by dixon_character_table",
    "Permutation": "the generator type of CorpusEntry and group_from_generators",
    "group_from_generators": "closes permutation generators; CorpusEntry.build "
    "and the permutation groups the tests build",
    "group_exponent": "exp(G), read by the character tables and by the "
    "witness-profile and fixture-identity tests",
    "is_normal": "the normality test behind the pair criteria",
    "subgroup_generate": "the closure behind commutator_subgroup and the "
    "central series, and the per-element reference for the Frattini column "
    "of the fixture generator's invariant rows",
}


def _used_names():
    """The names of `camina.__all__` with a whole-word user in USERS."""
    texts = [path.read_text() for path in USERS]
    return {
        name
        for name in camina.__all__
        if any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts)
    }


def test_every_public_name_has_a_user_or_a_reason():
    assert sorted(set(camina.__all__) - _used_names() - set(KEPT)) == []


def test_every_reason_names_a_public_name():
    assert set(KEPT) <= set(camina.__all__)


def test_no_reason_is_stale():
    """A name kept by a reason must not already have a user."""
    assert sorted(set(KEPT) & _used_names()) == []


def _definitions(tree):
    """(name, node) of each module-level function and class, and of each
    method of a module-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def test_every_definition_is_named_outside_itself():
    """A def or class whose last caller is gone is dead code.

    Each name must appear as a whole word in `src`, `tools`, `tests` or
    `e2ebench` more often than inside its own definition, decorators
    included.
    """
    shipped = sorted((ROOT / "src" / "camina").glob("*.py"))
    shipped += sorted((ROOT / "tools").glob("*.py"))
    readers = shipped + sorted((ROOT / "tests").glob("*.py"))
    readers += sorted((ROOT / "e2ebench").glob("*.py"))
    words = Counter(w for path in readers for w in WORD.findall(path.read_text()))
    unused = []
    for path in shipped:
        lines = path.read_text().splitlines()
        for name, node in _definitions(ast.parse("\n".join(lines))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            inside = WORD.findall("\n".join(lines[first - 1 : node.end_lineno]))
            if words[name] == inside.count(name):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_shipped_code_has_no_assert():
    """`python -O` strips assert statements, so an invariant must raise."""
    shipped = sorted((ROOT / "src" / "camina").glob("*.py"))
    shipped += sorted((ROOT / "tools").glob("*.py"))
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in shipped
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_benchmark_harness_self_tests_pass():
    """`e2ebench` drives the engine and the fixture generator through their
    names (`make_fixtures.fingerprint`, `iso_exists`, positional
    `CaminaVerdict(...)`, ...); renaming one breaks only its tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "e2ebench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
