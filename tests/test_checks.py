"""The check catalog, one synthetic `Invariants` at a time.

Each row changes a few fields of one base record and names the status one
check must read.  The statuses are worked out by hand from the check's
`inequality` text, not from its predicates; with |G:Z| = p^n, |Z| = p^m
and |G':Z| = p^l every inequality reads as one in (n, m, l).  Every check
has a row where it reads FAIL, so a conclusion replaced by `True` fails a
row, and every check whose hypothesis can be false has a row where it
reads PASS or FAIL, so a hypothesis replaced by `False` fails a row.  Each
inequality also has its equality boundary on both sides.
"""

import dataclasses

import pytest

from camina.pairs import CHECK_IDS, CHECKS, BoundCheck, Invariants

# a class-3 center pair with p = 3, |G:Z| = 3^4, |Z| = 3, |G':Z| = 3 on
# which every check reads PASS or VACUOUS
BASE = Invariants(
    p=3,
    n=4,
    m=1,
    l=1,
    n_exp=1,
    n_z2=2,
    class_c=3,
    p_group=True,
    upper_factors_exp_p=True,
    z_is_last_lower_term=True,
    fully_ramified=True,
    d_over_c_like_z=True,
    some_c_meets_gp_in_z=True,
    their_d_over_z_abelian=True,
    some_d_abelian_index_p=True,
    some_csmall_a=True,
)

# (check id, what the row shows, fields changed from BASE, status)
ROWS = [
    # |Z| <= |G:G'| = p^(n - l)
    ("T1.1", "m = n - l", dict(n=4, l=1, m=3), "PASS"),
    ("T1.1", "m = n - l + 1", dict(n=4, l=1, m=4), "FAIL"),
    # if Z < G' (l >= 1):  m < 3l
    ("T1.2", "m = 3l - 1", dict(l=1, m=2), "PASS"),
    ("T1.2", "m = 3l", dict(l=1, m=3), "FAIL"),
    ("T1.2", "Z = G'", dict(l=0, m=3), "VACUOUS"),
    # 4m + 1 <= 3n
    ("T1.3", "4m + 1 = 3n", dict(n=3, m=2), "PASS"),
    ("T1.3", "4m = 3n", dict(n=4, m=3), "FAIL"),
    # if Z < G':  2m <= n  or  m + 4 <= n
    ("T1.4", "2m = n", dict(l=1, n=6, m=3), "PASS"),
    ("T1.4", "m + 4 = n", dict(l=1, n=9, m=5), "PASS"),
    ("T1.4", "2m > n and m + 4 = n + 1", dict(l=1, n=8, m=5), "FAIL"),
    ("T1.4", "Z = G'", dict(l=0, n=8, m=5), "VACUOUS"),
    # if exp(G/Z) != p (n_exp >= 2):  2m < n
    ("T1.5", "2m = n - 1", dict(n_exp=2, n=5, m=2), "PASS"),
    ("T1.5", "2m = n", dict(n_exp=2, n=4, m=2), "FAIL"),
    ("T1.5", "exp(G/Z) = p", dict(n_exp=1, n=4, m=2), "VACUOUS"),
    # exp(G/Z) = p^n':  n' (m + 1) <= n
    ("Texp", "n' (m + 1) = n", dict(n_exp=2, m=1, n=4), "PASS"),
    ("Texp", "n' (m + 1) = n + 1", dict(n_exp=2, m=1, n=3), "FAIL"),
    ("Texp", "G = Z", dict(n_exp=0, n=0), "VACUOUS"),
    # G is a p-group
    ("L2.1", "an element of order prime to p", dict(p_group=False), "FAIL"),
    # if nilpotent:  each upper central factor has exponent p
    ("L2.2", "a factor of exponent p^2", dict(upper_factors_exp_p=False), "FAIL"),
    ("L2.2", "no class", dict(class_c=None, upper_factors_exp_p=False), "VACUOUS"),
    # if nilpotent:  Z is the last nontrivial lower central term
    ("L2.3", "Z above that term", dict(z_is_last_lower_term=False), "FAIL"),
    ("L2.3", "no class", dict(class_c=None, z_is_last_lower_term=False), "VACUOUS"),
    # n even, and the characters over Z fully ramified
    ("L2.4", "n odd", dict(n=5), "FAIL"),
    ("L2.4", "not fully ramified", dict(fully_ramified=False), "FAIL"),
    ("L2.4", "no table over the cap", dict(fully_ramified=None), "SKIPPED"),
    ("L2.4", "n odd, no table over the cap", dict(n=5, fully_ramified=None), "FAIL"),
    # D(g)/C(g) like Z
    ("Lcents", "some D(g)/C(g) unlike Z", dict(d_over_c_like_z=False), "FAIL"),
    # if G/Z nonabelian (l >= 1):  n_z2 >= m
    ("LZ2Gp", "|G : G'Z_2| = |Z|", dict(l=1, m=2, n_z2=2), "PASS"),
    ("LZ2Gp", "|G : G'Z_2| p = |Z|", dict(l=1, m=2, n_z2=1), "FAIL"),
    ("LZ2Gp", "G/Z abelian", dict(l=0, m=2, n_z2=1), "VACUOUS"),
    # if p = 2:  2m <= n
    ("Cor2grp", "p = 2, 2m = n", dict(p=2, n=4, m=2), "PASS"),
    ("Cor2grp", "p = 2, 2m = n + 1", dict(p=2, n=5, m=3), "FAIL"),
    ("Cor2grp", "p odd", dict(p=3, n=5, m=3), "VACUOUS"),
    # 2m <= n  or  m + 3 <= n
    ("Cm2", "2m = n", dict(n=6, m=3), "PASS"),
    ("Cm2", "m + 3 = n", dict(n=7, m=4), "PASS"),
    ("Cm2", "2m > n and m + 3 = n + 1", dict(n=6, m=4), "FAIL"),
    # if l = 1:  2m <= n
    ("CGpZ", "2m = n", dict(l=1, n=4, m=2), "PASS"),
    ("CGpZ", "2m = n + 1", dict(l=1, n=5, m=3), "FAIL"),
    ("CGpZ", "l = 2", dict(l=2, n=5, m=3), "VACUOUS"),
    ("CGpZ", "l = 0", dict(l=0, n=5, m=3), "VACUOUS"),
    # if Z < G':  m <= 3l - 1
    ("T5.1", "m = 3l - 1", dict(l=2, m=5), "PASS"),
    ("T5.1", "m = 3l", dict(l=2, m=6), "FAIL"),
    ("T5.1", "Z = G'", dict(l=0, m=1), "VACUOUS"),
    # if some C(a) meets G' exactly in Z:  their D(a)/Z abelian
    ("LDquo", "D(a)/Z nonabelian", dict(their_d_over_z_abelian=False), "FAIL"),
    (
        "LDquo",
        "no such a",
        dict(some_c_meets_gp_in_z=False, their_d_over_z_abelian=False),
        "VACUOUS",
    ),
    # if some a has D(a)/Z abelian of index p:  2m <= n
    ("Lidxp", "2m = n", dict(some_d_abelian_index_p=True, n=4, m=2), "PASS"),
    ("Lidxp", "2m = n + 1", dict(some_d_abelian_index_p=True, n=5, m=3), "FAIL"),
    ("Lidxp", "no such a", dict(some_d_abelian_index_p=False, n=5, m=3), "VACUOUS"),
    # if 2m > n:  no a has D(a)/Z abelian of index p
    ("LidxpRev", "2m > n, no a", dict(some_d_abelian_index_p=False, n=5, m=3), "PASS"),
    ("LidxpRev", "2m > n, an a", dict(some_d_abelian_index_p=True, n=5, m=3), "FAIL"),
    ("LidxpRev", "2m = n", dict(n=4, m=2, some_d_abelian_index_p=True), "VACUOUS"),
    # if some a in (G' n Z_2) - Z has C(a) containing script-C:  3m + 2 <= 2n
    ("Csmall", "3m + 2 = 2n", dict(some_csmall_a=True, n=4, m=2), "PASS"),
    ("Csmall", "3m + 2 = 2n + 1", dict(some_csmall_a=True, n=5, m=3), "FAIL"),
    ("Csmall", "no such a", dict(some_csmall_a=False, n=5, m=3), "VACUOUS"),
]

BY_ID = {c.check_id: c for c in CHECKS}


def test_every_check_has_a_failing_row():
    assert {cid for cid, _, _, status in ROWS if status == "FAIL"} == set(CHECK_IDS)


def test_every_check_reads_pass_or_vacuous_on_the_base():
    for c in CHECKS:
        got = BoundCheck(c.check_id, c.hypothesis(BASE), c.conclusion(BASE))
        assert got.status in ("PASS", "VACUOUS"), c.check_id


@pytest.mark.parametrize(
    "check_id, changes, status",
    [pytest.param(cid, ch, st, id=f"{cid}: {what}") for cid, what, ch, st in ROWS],
)
def test_check_status(check_id, changes, status):
    v = dataclasses.replace(BASE, **changes)
    c = BY_ID[check_id]
    got = BoundCheck(check_id, bool(c.hypothesis(v)), c.conclusion(v))
    assert got.status == status
