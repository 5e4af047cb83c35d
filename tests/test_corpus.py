"""Corpus format, built-in families, and the witness-family checks."""

import hashlib
import tracemalloc

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


# (spec, sha256 of mul, sha256 of inv).  Element indices appear in every
# witness and report, so each family table is pinned byte for byte: every
# instance of default_family_instances(2048), the large and wide benchmark
# specs, and both odd and even k for the cyclic extensions of C_k.
FAMILY_TABLE_SHA256 = [
    ("cyclic:2",
     "8bd2fa7c6873c97e24da3767da43702d8c85aadb7136ed816c324b1ebc6b26d2",
     "01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d"),
    ("cyclic:3",
     "6ced0cf01c15a0cfb730d6f177e211bcc740f4cc329db4643b8362d4ce425730",
     "be3e63ddb18e272dd8a8ba102772e6585e672d87230e0048635f47405926109f"),
    ("cyclic:4",
     "dda21c0c7eac5e110dd2377b15ccac9197ef8352f9ebc590eec8ad9def58b5eb",
     "8bfc8bc2a89c50ca43fb134038c561e593d0aa39543498c7094bc19b441e8306"),
    ("cyclic:5",
     "f27bc669f5be8e03620c5825c3f76aec293f51d04438c0c024c672514f33fe78",
     "8475704a7903076def3e54eb62b0b2a0a1f1d7dfd693cb44e09e994c45543f29"),
    ("cyclic:6",
     "84c95b76c6f1fb478960b43b3dd0626607eb91a6f425c3de1ce336c428441840",
     "6ac8256b05119c2f68e601335752619b202406ffacad1179aa571de45305bc62"),
    ("cyclic:8",
     "c791d253f2d877a6d6dd0f8e0a3feb9ef2f68bcc5cd5a0091741988aad2034ec",
     "bf003c42fbe1ce9acc65a99a30e62a435a78afbb29b2c17a5b489c04d35b8597"),
    ("cyclic:9",
     "67c1a634009d74b84b751a6759b91d3f68bdee22c5f8887122ac29c8472771a5",
     "4f4419ec505617a972df7f9d886c254743e1fc2ccc66e5263a8de7c914c2b759"),
    ("cyclic:16",
     "aa34e0191d5baa7ef2840fcbbe95c3941ff02ecb64c586a358bd2cd4d935b17d",
     "133f677e1a4c709b28867011f695e67d49422d4bdfa7a3a9c0371e3c82dfceda"),
    ("cyclic:27",
     "68b8fda8533467af370083cebdca9fa79a38ee1790be985b36e48383069598df",
     "f3f6195aa6e18d65244fd331254862c37908e7542a728a29ff0c3a7351b2c1b4"),
    ("cyclic:32",
     "adaed67163f06c3223af541525882e526e938e2df5668edb317b5c0ecf09bc5f",
     "13b0e2bc6279c3d8006a0a0b2b38dc48813b9426f9014c633cb04ca6f78936a7"),
    ("dihedral:8",
     "63d8ec7e38a79d537c1d99811e7ea8ab40ed9027ba4b85379e29d0b9241b2f54",
     "0ddbb5540a2a1e80c7379232e92aed59a87183cf3f4bef973c7799615f37d912"),
    ("quaternion:8",
     "38c63c126ff6d24a7c8afcf3eabd9cb7cb9ebfce262e7c602ed204e56dfe3af0",
     "d1acc6ca9c31e1b7bf6e6f8529b27539cdd842657c0d9250979868ef075d06a9"),
    ("dihedral:16",
     "ab5cd764794ee3c2d36eb71ee30ea0474bb453bf203153ff4ac41b03d8f72cf8",
     "1eb80de0f3d90571210140e696c3a3e87dc4315f787817188341d29fd8dd89e8"),
    ("quaternion:16",
     "32417d824fbafadee6f93dbd9b84f4f8d9360190bd35cc32d5d50fd2f4606c2f",
     "d4acbd4ecbb3677462ff2826d4f3b6c785d8b20982f2919c0f7264a636f1941c"),
    ("dihedral:32",
     "344555414ce4c69d126c732b9f650765f89c083f34708aa93fe9fde6cde6aebf",
     "77ce4032a85cd588a18ad9d9d4c2cd9bd6289c5706401c2833ced1d49c747550"),
    ("quaternion:32",
     "6260fd34a1ca5f0da14dd29fe145396bc4fad98877da5b8339ad45800f7e6f80",
     "897fe4055b2150d34697448815baeaec3a3b70b081345c79588f7a82dd886e8b"),
    ("dihedral:64",
     "de5879c99f189842665e3e77c856f6ffd1f232b31c4eabb961059c1986bb6054",
     "8a0073898524d2e6f1a57d516351b23322aff2e1c23925c282f351c878c4d82b"),
    ("quaternion:64",
     "e0565d0bf1d94e519e86329192dcb4f52fe30eee634ce1261537374a69beb63a",
     "a42d04e07d3faf14aea2d2704f3234d1e179acf8a83b5578b76d8507d867188c"),
    ("elemab:2,2",
     "ae6755f9e0f25932512eebd6b9c03ace2bfaf6ddcfab511694411edcb84a6a1c",
     "baed642339816affb3fe8719792d0e4ce82f12db72b7373d244eaa65445800fe"),
    ("elemab:2,3",
     "4bd2d302da8afa17e0f827e1ee4c1fa968b89fb3f5dd0dba9621d4ade814e62a",
     "ff1f6ee5d67458cfac950f62e93042e21fcb867e2234dcc8721801231064ad40"),
    ("elemab:2,4",
     "c45c2dbd455c14d5d7de876caf7ad4d5e9e4fca9ccafe92d339dcc4b3dfdd82a",
     "5d85718ec594b982c252d0279e5966ffca33a5eaf2a455038d3ab331fde70cea"),
    ("elemab:3,2",
     "accd39f38b03265952825b6e6e5a9b23174089d41c56c1a0d38dc58a89399b83",
     "16ec8bd607d2d1facc25b6f2312cd2ce6750b8afdf4595cb881de6c53da757dc"),
    ("elemab:3,3",
     "fccb855f84f4a7e4c7649378935ea3c810a8c427c2de23a1149a56aa501d93e5",
     "fcd625caabb3cbd911504498905f431316c601fc1eb50c11dc26aaf021e4afd4"),
    ("elemab:5,2",
     "a140d6b905e60e11ac7f2ea1ca916c585e1b5fc9ac9cf5de329e3b63167e589e",
     "fb0725a41dc39e2aa9ec435a1ffaa6b6fa2a17267b7e50ca9cd011a55bbcc6c4"),
    ("extraspecial_p:3,1",
     "5a006f1ce2a029a0b9fd2b7412dfa1c5bfb6e654996704f04fded0568f6d63d4",
     "abdf7f7468afcd04f787ddc3c6cd35c9e943355592a3f7f880a821883b7ade74"),
    ("extraspecial_p2:3,1",
     "5cabc42d47169e1c59fd2e052e543ddf3bd307e760a68ec00f932dec4d1dc332",
     "3e8a82262dd267f110db0eb4a2a638245fb5ba9171b365d5a936215958168b21"),
    ("extraspecial_p:5,1",
     "fe11097c4957490b240618f344ded4fecd3c1c3fd78e329653ea0f01b9a4b09f",
     "0ee26b18e64b1808bee0c29d34dd3ef35f89b26ee05d7649c709e0a4be0b45bd"),
    ("extraspecial_p2:5,1",
     "13740973652a434868e02d64886740fe34005dabd5e3fc932d95954701c47f71",
     "d729c5aa446e8a49aaf151e82068a9ed8dc0cfed28b7825ca2aaab81cb4b90b4"),
    ("extraspecial_p:7,1",
     "60dfddf3b449504520a62ace813ef4cece3f6e5c688fe2c7d07b9dcc4c371164",
     "853af1ea11d9858179e400c1eee7f71fa0558171412cd303631bf4e6cf1be61d"),
    ("extraspecial_p2:7,1",
     "5a3981d6a3ddf81675a2b8cf63bfca72c0a5dd22c824a70c1fc45fdbc0ef80a6",
     "1767ac77b12b54dbd6a62c820cbe9999a668e3aa89cbea6a4e2dc69ea36048eb"),
    ("extraspecial_p:3,2",
     "1623772ff972085560a68fa3184a3899e32a3f860143d941ce44423a7871552f",
     "64e716b7ee250df3e5e710797761f8dd86894e90d06e5b34ce1bf5d109c6ba78"),
    ("extraspecial_p2:3,2",
     "a3bc0704400458c1562912a62c2bf29d5dbdc17d808af64f3bc418b36d10e7fc",
     "47a64f43b68a77e9acd8e3db29d42ad73b6f0da82ba22091b9882a55565eb34f"),
    ("heisenberg:2,1",
     "3fddda68f47064ad5bc09dea991f548c819c59080303e3b5aef623b9b98135bf",
     "e48274d8ed0a96c64e0c67f2d5844926c810ed34eb336f6e12b3605378c4b16b"),
    ("heisenberg:3,1",
     "5a006f1ce2a029a0b9fd2b7412dfa1c5bfb6e654996704f04fded0568f6d63d4",
     "abdf7f7468afcd04f787ddc3c6cd35c9e943355592a3f7f880a821883b7ade74"),
    ("heisenberg:5,1",
     "fe11097c4957490b240618f344ded4fecd3c1c3fd78e329653ea0f01b9a4b09f",
     "0ee26b18e64b1808bee0c29d34dd3ef35f89b26ee05d7649c709e0a4be0b45bd"),
    ("heisenberg:7,1",
     "60dfddf3b449504520a62ace813ef4cece3f6e5c688fe2c7d07b9dcc4c371164",
     "853af1ea11d9858179e400c1eee7f71fa0558171412cd303631bf4e6cf1be61d"),
    ("T:3,1",
     "c2fbffafa69f42cbc98d16cdc4b166577f9febe2ec12fbfab89ec3e72a699994",
     "27261fccf775a6023ea64f2ea8d719007c71a4d2badb32d5274eacdd8cf4bcdf"),
    ("T:5,1",
     "1c19b7017af4eb59044986ff4cb88346a8807400448b509fe26310ae4392bdbd",
     "578be57b1299525d4229db67d6bec58903995afe33348ce7d755daa64643088c"),
    ("dihedral:2048",
     "23b5864b9631b44380e144fa5b9e120201c9fbaaa31f507595d1688e242bb9ee",
     "5645e6809ae0039f98e0bd0c1c24ec56d4888396870e9dc42c9ce7b70e2abb3d"),
    ("quaternion:1024",
     "329be75972853f2fc478fc7a3260d5d8b1e242bddbef25ac812272b12661c2c3",
     "3319f11db081ed9478bb16cddf6f0bd965d551bce8206fef86913ecbdfc65d1c"),
    ("cyclic:2048",
     "e5b1de98b26c1b4641673d29fc5e24633acf922b9c96f73ee95dd04c27001deb",
     "afd4474f480299589d5316dddc2f2764a26784a223a79a5255234f5a87d68296"),
    ("elemab:2,11",
     "30bf1ca064f3152789d76da0ea7103f80566fa51799d0b2a06dbb4ab63311c7d",
     "cc76b029564c7257d6c27e130546ac40603f1e3ae5efc1106b2656294f599ec5"),
    ("T:2,3",
     "560c3a11c77ca0f5bd597cad70681362ea06bd622fbc4d90a16dc96576944574",
     "b6a28814632b9dc096bbce50fb9bdfea7f8704ac65d7c012fa021834988a7360"),
    ("heisenberg:2,3",
     "3594a6844bb8e837edc545debae1ec5acf7c356f8e8a984fb97c8a5172b9e4fb",
     "1187c08eed06b69528a738b8fbb25fae991eb7da10956989087ddddeb378a320"),
    ("heisenberg:3,2",
     "5c6e2d431e1e3a1df6087427911f52cc1094987aa9f4b985bb0e48e4a479cad3",
     "f11dfe4bccb4e0b5445bf1d9152fc782ebd7e8499b4e97eeef4704471ab8797d"),
    ("heisenberg:11,1",
     "59354f417bebaa564c83095b03008edc84e56a211ef21f86b926cdf0787ea564",
     "73f79f2b41edaf353a2faa306d7c7d93fe0874c24bb249dd521c9f12d4576ff7"),
    ("extraspecial_p2:11,1",
     "1a7a6cbdffb3d1a6617eb5990da3ff580050bed248beb80f996cd661b0a5968c",
     "6459546ddecfcc1055c95af75f9a49e892168d49bbc9c682731d3ab6e8eff133"),
    ("quaternion:12",
     "a573a88b8513b980e06fe58e24854b58933f74434e91c7c5b20b299ff7feab71",
     "72d519c4a9fbc65ca3ce4f6b4bff65750f2e882b86ee0d006cb859fc401c58b8"),
    ("dihedral:6",
     "2f0d5d2f4b5b8d73e719de80bc165a87aadd5d1df7956cbb22907417a87b72be",
     "dcdd2e574d580f905a214248a23786969b32b07c2659cc097ad91412e8cb0af9"),
    ("quaternion:24",
     "9d048c705c381a7d398e62a6cb45297e7f6586f4d9d975e1a89822178b896c9d",
     "08ac818d65d404ed4841f02aa444195a5c3710aecacfe26cbc73375c2bf4b83c"),
    ("heisenberg:2,2",
     "dc7384de1f7b670a18e125c1397971a2b51cc971dedd7ce4d40aa5dd826cea19",
     "aaa79371d3b41cf9a295a21b08824f656624b7f8716a0abe8a35cd04ffbb95dc"),
    ("T:2,1",
     "758479d51d7001d759234c482594773875d15b5ac73c8e39624da1f585c2c8aa",
     "4f781187bc5b4f3323d8ac2dc889f43f9c857a9c1c75de57db3612ba3b9b4d79"),
    ("T:2,2",
     "68437bd4183554785187508e0dec58bac8160423ee45c2189bd26184af806140",
     "556c13053fcbe73e1782e920acea0a9ba7406c47de45c1db4e8914e3cee1328d"),
]


@pytest.mark.parametrize(
    "spec, mul_sha, inv_sha",
    FAMILY_TABLE_SHA256,
    ids=[spec for spec, _, _ in FAMILY_TABLE_SHA256],
)
def test_family_table_is_pinned(spec, mul_sha, inv_sha):
    G = build_family(parse_family_spec(spec))
    assert hashlib.sha256(G.mul.tobytes()).hexdigest() == mul_sha
    assert hashlib.sha256(G.inv.tobytes()).hexdigest() == inv_sha


def test_pins_cover_default_instances_and_every_family():
    pinned = {s for s, _, _ in FAMILY_TABLE_SHA256}
    assert {gid for gid, _ in default_family_instances(2048)} <= pinned
    aliases = {s.partition(":")[0] for s in pinned}
    assert aliases == {fam.alias for fam in FAMILIES.values()}
    for alias in ("extraspecial_p", "extraspecial_p2"):
        assert {f"{alias}:3,1", f"{alias}:3,2"} <= pinned


@pytest.mark.parametrize(
    "spec, mul_sha, inv_sha",
    [
        ("extraspecial_p:3,3",
         "0b7ea0c9873c52fb5c3f949e311d52d4445b264c0bd3e924bd4f3ab05666036d",
         "a86bbe5a70890f56716c427103faae01cb07cebb3cee45aee5b5f81127f03412"),
        ("extraspecial_p2:3,3",
         "86e787f8e83dcec9b1ed503a51752bcaee8ba17150362a333245bd1fbfb95531",
         "ec0ccad6c00be29d232b79e1bacca9ee6957cae3c3000b345be7238350af1df5"),
    ],
    ids=["extraspecial_p:3,3", "extraspecial_p2:3,3"],
)
def test_extraspecial_at_the_cap_forms_no_larger_table(spec, mul_sha, inv_sha):
    """Order 2187 is built without a table larger than the result: the
    traced peak stays under 250 MB (the 2187^2 int32 table is 18 MB)."""
    tracemalloc.start()
    try:
        G = build_family(parse_family_spec(spec), order_cap=2187)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250 * 2**20
    assert hashlib.sha256(G.mul.tobytes()).hexdigest() == mul_sha
    assert hashlib.sha256(G.inv.tobytes()).hexdigest() == inv_sha


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
