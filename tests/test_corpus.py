"""Corpus format, built-in families, and the witness-family checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camina import (
    FamilySpec,
    build_family,
    center,
    derived_subgroup,
    group_exponent,
    nilpotency_class,
    parse_corpus,
    parse_family_spec,
    serialize_corpus,
    t_witness_spec,
    verify_witness_properties,
)
from camina.corpus import (
    FAMILIES,
    _digit_sum_table,
    default_family_instances,
    group_to_entry,
)
from camina.errors import (
    CaminaError,
    ClosureExceedsCap,
    CorpusSyntaxError,
    DuplicateId,
    OrderMismatch,
    UnsupportedParameters,
)


# ---------------------------------------------------------------------------
# parsing


def test_empty_corpus():
    assert parse_corpus("") == []
    assert parse_corpus("# only a comment\n\n") == []


def test_single_c2_entry():
    text = "group 2 1 C2\ndegree 2\ngen 2 1\nend\n"
    entries = parse_corpus(text)
    assert len(entries) == 1
    assert entries[0].gid == "2:1"
    assert entries[0].build().order == 2


def test_syntax_error_carries_line_number():
    text = "group 2 1 C2\ndegree 2\nflub 1 2\nend\n"
    with pytest.raises(CorpusSyntaxError) as err:
        parse_corpus(text)
    assert err.value.lineno == 3


def test_gen_before_degree():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus("group 2 1 C2\ngen 2 1\nend\n")


def test_unterminated_block():
    with pytest.raises(CorpusSyntaxError):
        parse_corpus("group 2 1 C2\ndegree 2\ngen 2 1\n")


def test_duplicate_id():
    text = (
        "group 2 1 A\ndegree 2\ngen 2 1\nend\n"
        "group 2 1 B\ndegree 2\ngen 2 1\nend\n"
    )
    with pytest.raises(DuplicateId):
        parse_corpus(text)


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        parse_corpus("group 4 1 NotC4\ndegree 2\ngen 2 1\nend\n")
    with pytest.raises(OrderMismatch):
        parse_corpus("group 2 1 TooBig\ndegree 4\ngen 2 3 4 1\nend\n")


def test_fixture_order32_all_close(corpus_entries):
    entries32 = [e for e in corpus_entries if e.order == 32]
    assert len(entries32) == 51
    assert len({e.index for e in entries32}) == 51
    for e in entries32:
        assert e.build().order == 32


def test_corpus_groups_are_associative(corpus_groups):
    for G in corpus_groups.values():
        assert G.order <= 256
        m = G.mul
        for a in range(G.order):
            assert np.array_equal(m[m[a, :], :], m[a][m])


def test_round_trip_identical_table(q8, heis27):
    for G, order in ((q8, 8), (heis27, 27)):
        entry = group_to_entry(G, order, 1, "roundtrip")
        text = serialize_corpus([entry])
        back = parse_corpus(text)[0].build()
        assert np.array_equal(back.mul, G.mul)


def test_minimal_round_trip_same_group(q8):
    entry = group_to_entry(q8, 8, 1, "minimal", minimal=True)
    assert len(entry.generators) <= 3
    back = parse_corpus(serialize_corpus([entry]))[0].build()
    assert back.order == 8
    assert sorted(int(o) for o in back.element_orders()) == sorted(
        int(o) for o in q8.element_orders()
    )


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=12))
def test_cyclic_round_trip(n):
    G = build_family(FamilySpec("cyclic", (n,)))
    entry = group_to_entry(G, n, 1, f"C{n}")
    back = parse_corpus(serialize_corpus([entry]))[0].build()
    assert np.array_equal(back.mul, G.mul)


def test_declared_order_above_the_cap_is_rejected_before_closure():
    # the generators close to S_5; the cap stops the closure before it starts
    text = "group 120 1 S5\ndegree 5\ngen 2 3 4 5 1\ngen 2 1 3 4 5\nend\n"
    with pytest.raises(ClosureExceedsCap):
        parse_corpus(text, order_cap=24)


# ---------------------------------------------------------------------------
# fuzzing: every input parses or raises a CaminaError, within a small cap

FUZZ_CAP = 24

_small_ints = st.integers(min_value=-2, max_value=30) | st.integers()
_corpus_line = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["end", "group", "degree", "gen", "# note", "", "  end  "]),
    st.builds(
        "group {} {} {}".format, _small_ints, _small_ints, st.text(max_size=4)
    ),
    st.builds("degree {}".format, _small_ints),
    st.lists(_small_ints, max_size=9).map(lambda xs: " ".join(["gen", *map(str, xs)])),
    st.integers(min_value=1, max_value=8)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda xs: " ".join(["gen", *map(str, xs)])),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_corpus_line, max_size=12).map("\n".join))
def test_parse_corpus_fuzz(text):
    try:
        entries = parse_corpus(text, order_cap=FUZZ_CAP)
    except CaminaError:
        return
    for e in entries:
        assert 1 <= e.degree <= FUZZ_CAP
        assert e.build(FUZZ_CAP).order == e.order <= FUZZ_CAP


_aliases = sorted(f.alias for f in FAMILIES.values())
_family_text = st.one_of(
    st.text(max_size=20),
    st.builds(
        "{}:{}".format,
        st.sampled_from(_aliases) | st.text(max_size=4),
        st.lists(_small_ints.map(str) | st.text(max_size=3), max_size=4).map(",".join),
    ),
)


@settings(deadline=None, max_examples=300)
@given(_family_text)
def test_parse_family_spec_fuzz(text):
    try:
        G = build_family(parse_family_spec(text), order_cap=FUZZ_CAP)
    except CaminaError:
        return
    assert G.order <= FUZZ_CAP


# ---------------------------------------------------------------------------
# families


def test_family_quaternion_reference():
    G = build_family(FamilySpec("quaternion", (8,)))
    assert G.order == 8
    orders = sorted(int(o) for o in G.element_orders())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_family_heisenberg():
    G = build_family(FamilySpec("heisenberg_sl3_sylow", (3, 1)))
    assert G.order == 27
    assert center(G).order == 3
    assert nilpotency_class(G) == 2
    assert group_exponent(G) == 3


def test_family_heisenberg_prime_power_field():
    G = build_family(FamilySpec("heisenberg_sl3_sylow", (2, 2)))
    assert G.order == 64
    assert center(G).order == 4


@pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2), (2, 6)])
def test_digit_sum_table_matches_broadcast_formula(p, k):
    """The plane-at-a-time table equals the all-digits-at-once formula."""
    q = p**k
    v = np.arange(q)
    digits = np.stack([v // p**d % p for d in range(k)], axis=1)
    summed = (digits[:, None, :] + digits[None, :, :]) % p
    want = np.zeros((q, q), dtype=np.int64)
    for d in range(k - 1, -1, -1):
        want = want * p + summed[:, :, d]
    got = _digit_sum_table(p, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_family_t_witness(t81):
    assert t81.order == 81
    Z = center(t81)
    assert Z.order == 9
    Tp = derived_subgroup(t81)
    assert Z.order // Tp.order == 3


def test_family_extraspecial_errors():
    with pytest.raises(UnsupportedParameters):
        build_family(FamilySpec("extraspecial_exp_p", (2, 1)))
    with pytest.raises(UnsupportedParameters):
        build_family(FamilySpec("dihedral", (7,)))
    with pytest.raises(UnsupportedParameters):
        build_family(FamilySpec("elementary_abelian", (4, 2)))


def test_family_extraspecial_27s(heis27, mod27):
    assert group_exponent(heis27) == 3
    assert group_exponent(mod27) == 9
    for G in (heis27, mod27):
        Z = center(G)
        assert Z.order == 3
        assert Z == derived_subgroup(G)


def test_family_extraspecial_243():
    G = build_family(FamilySpec("extraspecial_exp_p", (3, 2)))
    assert G.order == 243
    assert center(G).order == 3
    assert group_exponent(G) == 3


def test_parse_family_spec():
    assert parse_family_spec("quaternion:8") == FamilySpec("quaternion", (8,))
    assert parse_family_spec("heisenberg:3") == FamilySpec(
        "heisenberg_sl3_sylow", (3,)
    )
    assert parse_family_spec("T:3,1") == t_witness_spec(3, 1)
    with pytest.raises(UnsupportedParameters):
        parse_family_spec("nosuch:3")
    with pytest.raises(UnsupportedParameters):
        parse_family_spec("cyclic")


def test_default_family_registry_builds():
    instances = default_family_instances(128)
    assert instances
    for gid, spec in instances:
        G = build_family(spec)
        assert G.order <= 128
        # spot validation: identity row/column and Latin rows
        idx = np.arange(G.order)
        assert (G.mul[0] == idx).all() and (G.mul[:, 0] == idx).all()
        assert (np.sort(G.mul, axis=1) == idx).all()


# ---------------------------------------------------------------------------
# witness-family property report


def test_witness_profile_p3(t81):
    rep = verify_witness_properties(t81, 3, 1)
    assert rep.passed


def test_witness_control_fails(heis27):
    rep = verify_witness_properties(heis27, 3, 1)
    assert not rep.passed
    assert not rep.order_ok
    assert not rep.center_order_ok  # center has order 3, not p^(k+1) = 9
    assert not rep.centralizer_order_ok


def test_witness_wrong_parameters(t81):
    rep = verify_witness_properties(t81, 3, 2)
    assert not rep.passed
