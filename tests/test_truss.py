"""Hopf trusses: the suite induced by idempotent endomorphisms, the derived
identities, mutation detection, and truss morphisms."""
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from hopfkit.errors import ConditionBFailed, LawViolation, PreconditionNotMet
from hopfkit.factories import (
    function_algebra,
    group_algebra,
    linearize_endo,
    named_endo,
    sweedler_h4,
)
from hopfkit.fields import Field, QQ
from hopfkit import linmap, structures
from hopfkit.groups import (
    cyclic,
    group_by_name,
    idempotent_endos,
    semidirect_group,
    symmetric3,
)
from hopfkit.linmap import first_mismatch, identity, shape, tensor
from hopfkit.post_hopf import check_post_hopf, post_hopf_from_truss
from hopfkit.rota_baxter import truss_from_idempotent
from hopfkit.structures import CheckReport, check_module_algebra
from hopfkit.truss import (
    HopfTrussData,
    check_truss,
    check_truss_derived,
    check_truss_morphism,
    truss_action,
    truss_class_condition,
)

from helpers import (
    action_distributes_rhs,
    distributivity_rhs,
    product_compat_rhs,
    suite_trusses,
)

SUITE_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "S3", "D4", "Q8")


def dq(group_name, endo_name, fld=QQ):
    g = group_by_name(group_name)
    h = group_algebra(g, fld)
    q = linearize_endo(g, named_endo(g, endo_name), fld)
    return truss_from_idempotent(h, q)


def test_full_idempotent_suite():
    for name in SUITE_GROUPS:
        g = group_by_name(name)
        h = group_algebra(g, QQ)
        for images in idempotent_endos(g):
            q = linearize_endo(g, images, QQ)
            t = truss_from_idempotent(h, q)
            assert check_truss(t).passed, (name, images)
            assert check_truss_derived(t).passed, (name, images)


def test_identity_endo_gives_hopf_truss_with_equal_products():
    t = dq("S3", "identity")
    assert t.mu2 == t.mu1
    assert t.cocycle == identity(QQ, shape(6))


def test_trivial_endo_gives_counit_second_product():
    t = dq("S3", "trivial")
    i1 = identity(QQ, shape(6))
    assert t.mu2 == t.mu1 @ tensor(t.cocycle, i1)
    # mu2(g (x) h) = eps(g) h when q is the trivial endomorphism... up to
    # the unit: q(g) = e, so mu2 = (eps . id) followed by left unit
    assert t.mu2 == tensor(t.eps, i1)
    assert truss_action(t) == tensor(t.eps, i1)


def test_gamma_is_counit_action_for_every_dq():
    for endo in ("identity", "trivial", "sign-retraction"):
        t = dq("S3", endo)
        assert truss_action(t) == tensor(t.eps, identity(QQ, shape(6)))


def test_sigma_recovered_from_mu2():
    t = dq("S3", "sign-retraction")
    i1 = identity(QQ, shape(6))
    assert t.mu2 @ tensor(i1, t.eta) == t.cocycle


def test_class_condition_on_cocommutative_and_sweedler():
    assert truss_class_condition(dq("S3", "sign-retraction"))
    h4 = sweedler_h4(QQ)
    t4 = truss_from_idempotent(h4, identity(QQ, shape(4)))
    assert check_truss(t4).passed
    assert check_truss_derived(t4).passed
    assert truss_class_condition(t4)  # sigma = id passes even here


def test_gf5_trusses():
    t = dq("S3", "sign-retraction", Field.prime(5))
    assert check_truss(t).passed
    assert check_truss_derived(t).passed


def test_condition_b_failure():
    # constant-to-g map on C2 is a coalgebra morphism but fails condition B
    g = cyclic(2)
    h = group_algebra(g, QQ)
    q = linearize_endo(g, (1, 1), QQ)
    with pytest.raises(ConditionBFailed):
        truss_from_idempotent(h, q)


def test_non_coalgebra_morphism_rejected():
    g = cyclic(2)
    h = group_algebra(g, QQ)
    notq = h.antipode.with_entry(0, 0, Fraction(2))
    with pytest.raises(PreconditionNotMet):
        truss_from_idempotent(h, notq)


def mutate(t, mapname, i, j):
    m = getattr(t, mapname)
    maps = {
        "eta": t.eta, "mu1": t.mu1, "mu2": t.mu2, "eps": t.eps,
        "delta": t.delta, "antipode": t.antipode, "cocycle": t.cocycle,
    }
    maps[mapname] = m.with_entry(i, j, t.obj.field.add(m.entry(i, j),
                                                       t.obj.field.one))
    return HopfTrussData(t.obj, maps["eta"], maps["mu1"], maps["mu2"],
                         maps["eps"], maps["delta"], maps["antipode"],
                         maps["cocycle"])


def test_single_entry_mutations_all_detected():
    # exhaustive on a small carrier; the acceptance suite sweeps every truss
    t2 = dq("C2", "identity")
    for i in range(2):
        for j in range(2):
            rep = check_truss(mutate(t2, "cocycle", i, j))
            assert not rep.passed, ("sigma", i, j)
            assert rep.failures()[0].witness is not None
        for j in range(4):
            rep = check_truss(mutate(t2, "mu2", i, j))
            assert not rep.passed, ("mu2", i, j)
            assert rep.failures()[0].witness is not None
    # spot checks on the six-dimensional example
    t = dq("S3", "sign-retraction")
    for i, j in [(0, 0), (5, 5), (2, 4), (3, 1)]:
        assert not check_truss(mutate(t, "cocycle", i, j)).passed
    for i, j in [(0, 0), (5, 35), (1, 17), (4, 23)]:
        assert not check_truss(mutate(t, "mu2", i, j)).passed


def test_truss_morphism_identity_and_projection():
    t = dq("S3", "sign-retraction")
    i1 = identity(QQ, shape(6))
    assert check_truss_morphism(i1, t, t).passed
    # the sign retraction itself maps the truss onto itself compatibly with
    # both products (it is a group endomorphism fixing the cocycle image)
    q = t.cocycle
    rep = check_truss_morphism(q, t, t)
    assert rep.passed, str(rep)


def test_truss_morphism_failure_reported():
    t = dq("S3", "sign-retraction")
    s = dq("S3", "identity")
    rep = check_truss_morphism(identity(QQ, shape(6)), t, s)
    assert not rep.passed


def dihedral_identity_truss(k):
    """The identity-endomorphism truss on the dihedral group of order 2k,
    built as the benchmark's ladder builds it (order 24 is in no catalog)."""
    g = semidirect_group(cyclic(k), cyclic(2),
                         {0: tuple(range(k)), 1: tuple((-x) % k for x in range(k))})
    q = linearize_endo(g, tuple(range(g.order)), QQ)
    return truss_from_idempotent(group_algebra(g, QQ), q)


# Dict columns one check_truss builds, by the two column builders: the columns
# of a dict-held Kronecker product (``_kron_all``) and the columns of a
# monomial map (``_dict_cols``).
# Every map of a group algebra is monomial, so its laws are checked by index
# arithmetic alone.  The counts are exact, and every law side must be
# monomial, so a law side that falls back to dict columns fails the test.
DICT_COLUMNS = {8: {"_kron_all": 0, "_dict_cols": 0},
                12: {"_kron_all": 0, "_dict_cols": 0}}


@pytest.mark.parametrize("k", sorted(DICT_COLUMNS))
def test_check_truss_builds_few_kronecker_columns(monkeypatch, k):
    t = dihedral_identity_truss(k)
    built = dict.fromkeys(DICT_COLUMNS[k], 0)

    def counted(name, build, columns):
        def wrapped(*args):
            out = build(*args)
            built[name] += columns(out)
            return out
        return wrapped

    monkeypatch.setattr(linmap, "_kron_all", counted("_kron_all", linmap._kron_all, len))
    monkeypatch.setattr(linmap, "_dict_cols", counted("_dict_cols", linmap._dict_cols, len))
    sides = []
    compare = structures.first_mismatch

    def spy(f, g):
        sides.extend((f, g))
        return compare(f, g)

    monkeypatch.setattr(structures, "first_mismatch", spy)
    rep = check_truss(t)
    assert rep.passed
    assert built == DICT_COLUMNS[k]
    assert len(sides) == 2 * len(rep.results)
    assert all(m.monomial for m in sides)


# Total length of the column lists ``_gather`` is asked to read during one
# check_truss, recursive reads included: 64 146 at order 16 and 208 346 at
# order 24 when every product was split into one list per factor and a stored
# map after a product was read at the product's rows.  The mixed-product rule
# reads ``(id (x) c (x) id) . (delta (x) id (x) id)`` at n^2 columns, not n^3:
# 12 322 and 36 722.  ``truss.distributivity`` then still read its right side
# through two n^3-column lists, after ``mu2 (x) gamma`` and after ``mu1``;
# written as ``(mu1 . (id (x) gamma)) . (mu2 (x) id (x) id) . ...``, both n^3
# steps are a stored map after a product of two stored factors, which reads
# its blocks without a column list.
GATHERED = {8: 4_402, 12: 9_674}


@pytest.mark.parametrize("k", sorted(GATHERED))
def test_check_truss_gathers_few_columns(monkeypatch, k):
    t = dihedral_identity_truss(k)
    read = []
    gather = linmap._gather

    def counted(m, idx=None):
        if idx is not None:
            read.append(len(idx))
        return gather(m, idx)

    monkeypatch.setattr(linmap, "_gather", counted)
    assert check_truss(t).passed
    assert sum(read) == GATHERED[k]


def test_check_truss_memory_at_order_16():
    t = dihedral_identity_truss(8)
    tracemalloc.start()
    try:
        rep = check_truss(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    # about 4.5 MB with lazy products; 49 MB when every product was built
    assert peak < 12_000_000


# -- the distributive laws in the interchanged association ----------------------


def _law(mp, law, check, *args):
    """The sides ``check(*args)`` compared for ``law``, and its result."""
    sides = {}
    add = CheckReport.add

    def spy(self, name, lhs, rhs):
        if name == law:
            sides[law] = (lhs, rhs)
        return add(self, name, lhs, rhs)

    mp.setattr(CheckReport, "add", spy)
    rep = check(*args)
    return sides[law], next(r for r in rep.results if r.law == law)


def _bump(m, rng):
    """``m`` with one entry, picked by ``rng``, raised by one."""
    i, j = rng.randrange(m.cod.total), rng.randrange(m.dom.total)
    return m.with_entry(i, j, m.field.add(m.entry(i, j), m.field.one))


def _distributive_cases(fld):
    """The suite trusses, and the identity truss on the functions on D4,
    whose coproduct is dict-held."""
    h = function_algebra(group_by_name("D4"), fld)
    return [*suite_trusses(fld),
            ("fun(D4)/id", truss_from_idempotent(h, identity(fld, shape(h.obj.dim))))]


@pytest.mark.parametrize("fld", [QQ, Field.prime(5)], ids=["Q", "GF5"])
def test_distributive_laws_keep_their_maps_and_witnesses(monkeypatch, fld):
    # truss.distributivity, post-hopf.action-distributes and
    # module-algebra.product-compat read x (x) y as (id (x) y) . (x (x) id (x) id):
    # each side equals the old association's, and with one entry of mu2, sigma
    # or the action bumped both give the same verdict and witness
    rng = random.Random(23)
    cases = _distributive_cases(fld)
    assert len(cases) == 35
    for name, t in cases:
        w = post_hopf_from_truss(t)
        gamma = truss_action(t)
        laws = [
            ("truss.distributivity", check_truss, (t,), lambda: distributivity_rhs(t)),
            ("post-hopf.action-distributes", check_post_hopf, (w,),
             lambda: action_distributes_rhs(w)),
            ("module-algebra.product-compat", check_module_algebra,
             (t.second(), gamma, t.hopf()),
             lambda: product_compat_rhs(t.second(), gamma, t.hopf())),
        ]
        for law, check, args, old in laws:
            with monkeypatch.context() as mp:
                (_, rhs), res = _law(mp, law, check, *args)
            assert res.passed, (name, law)
            assert first_mismatch(rhs, old()) is None, (name, law)
        t2 = replace(t, mu2=_bump(t.mu2, rng))
        t3 = replace(t, cocycle=_bump(t.cocycle, rng))
        w2 = replace(w, action=_bump(w.action, rng))
        g2 = _bump(gamma, rng)
        bumped = [
            ("truss.distributivity", check_truss, (t2,), lambda: distributivity_rhs(t2)),
            ("truss.distributivity", check_truss, (t3,), lambda: distributivity_rhs(t3)),
            ("post-hopf.action-distributes", check_post_hopf, (w2,),
             lambda: action_distributes_rhs(w2)),
            ("module-algebra.product-compat", check_module_algebra,
             (t.second(), g2, t.hopf()),
             lambda: product_compat_rhs(t.second(), g2, t.hopf())),
        ]
        for law, check, args, old in bumped:
            with monkeypatch.context() as mp:
                (lhs, _), res = _law(mp, law, check, *args)
            want = first_mismatch(lhs, old())
            assert (res.passed, res.witness) == (want is None, want), (name, law)
