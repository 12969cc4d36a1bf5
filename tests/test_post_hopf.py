"""Weak twisted post-Hopf structures: axioms, derived antipode, splitting,
and the two functors to and from Hopf trusses."""
from fractions import Fraction

import pytest

from hopfkit.errors import (
    ClassConditionFailed,
    LawViolation,
    NotCocommutative,
    NotIdempotent,
    PreconditionNotMet,
)
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, identity, shape, tensor, zero_map
from hopfkit.post_hopf import (
    PostHopfData,
    check_post_hopf,
    check_twisted,
    class_condition,
    cocycle_identity_equivalence,
    conjugation_post_hopf,
    curried_action,
    curried_action_inverse,
    derived_antipode,
    derived_antipode_suite,
    derived_product,
    induced_bialgebra,
    induced_hopf,
    lemma_suite,
    post_hopf_from_truss,
    roundtrip_check,
    split_idempotent,
    trivial_post_hopf,
    truss_from_post_hopf,
    truss_roundtrip_check,
)
from hopfkit.rota_baxter import truss_from_idempotent
from hopfkit.structures import check_cocommutative, check_hopf, require_flip, solve_antipode
from hopfkit.truss import check_truss

from helpers import negated_flip_c2_post_hopf, suite_trusses


def sign_retraction_post_hopf(fld=QQ):
    g = symmetric3()
    h = group_algebra(g, fld)
    q = linearize_endo(g, named_endo(g, "sign-retraction"), fld)
    return post_hopf_from_truss(truss_from_idempotent(h, q))


def test_trivial_post_hopf_laws():
    for name in ("C2", "S3", "D4"):
        h = group_algebra(group_by_name(name), QQ)
        w = trivial_post_hopf(h)
        assert check_post_hopf(w).passed, name
        assert check_twisted(w).passed, name
        assert lemma_suite(w).passed, name


def test_check_twisted_reports_on_non_flip_carrier():
    # currying the action needs the flip; the checker must still report
    rep = check_twisted(negated_flip_c2_post_hopf())
    assert [(r.law, r.passed, r.skipped, r.witness) for r in rep.results] == [
        ("twisted.cocycle-unital", True, False, None),
        ("twisted.curried-action-invertible", True, True, "needs flip braiding"),
        ("twisted.derived.unit-acts-trivially", True, True,
         "twisted axioms not established"),
        ("twisted.derived.derived-product-left-unit", True, True,
         "twisted axioms not established"),
    ]


def test_trivial_post_hopf_on_sweedler():
    # no cocommutativity needed for the weak axioms with the counit action
    w = trivial_post_hopf(sweedler_h4(QQ))
    assert check_post_hopf(w).passed
    assert check_twisted(w).passed


def test_conjugation_post_hopf_on_cocommutative():
    h = group_algebra(symmetric3(), QQ)
    w = conjugation_post_hopf(h)
    assert check_post_hopf(w).passed
    assert check_twisted(w).passed
    assert lemma_suite(w).passed
    # the derived product of the conjugation action is the opposite product
    bar = derived_product(w)
    assert bar == h.mu @ h.obj.braid


def test_conjugation_fails_without_cocommutativity():
    w = conjugation_post_hopf(sweedler_h4(QQ))
    assert not check_post_hopf(w).passed


def test_derived_product_of_trivial_is_original():
    h = group_algebra(symmetric3(), QQ)
    w = trivial_post_hopf(h)
    assert derived_product(w) == h.mu


def test_derived_antipode_is_antipode_on_trivial():
    for name in ("C2", "S3"):
        h = group_algebra(group_by_name(name), QQ)
        w = trivial_post_hopf(h)
        assert derived_antipode(w) == h.antipode


def test_derived_antipode_is_antipode_on_conjugation():
    h = group_algebra(symmetric3(), QQ)
    assert derived_antipode(conjugation_post_hopf(h)) == h.antipode


def test_derived_antipode_equals_its_unbraided_form():
    # on a cocommutative carrier c . delta == delta, so the braided form that
    # derived_antipode returns is the form without the braiding
    checked = 0
    for name, t in suite_trusses():
        w = post_hopf_from_truss(t)
        if not check_cocommutative(w.hopf) or not check_twisted(w).passed:
            continue
        h = w.hopf
        b = require_flip(w.obj, "test").b
        unbraided = (tensor(b, w.obj.id(1))
                     @ tensor(h.antipode @ w.cocycle, curried_action_inverse(w))
                     @ h.delta)
        assert derived_antipode(w) == unbraided, name
        checked += 1
    assert checked > 0


def test_derived_antipode_needs_cocommutativity():
    w = trivial_post_hopf(sweedler_h4(QQ))
    with pytest.raises(NotCocommutative):
        derived_antipode(w)


def test_derived_antipode_suite_sign_retraction():
    w = sign_retraction_post_hopf()
    rep = derived_antipode_suite(w)
    assert rep.passed, str(rep)
    skipped = [r.law for r in rep.results if r.skipped]
    assert skipped == []


def _zero_action_c2():
    h = group_algebra(cyclic(2), QQ)
    return PostHopfData(hopf=h, action=zero_map(QQ, shape(2, 2), shape(2)),
                        cocycle=h.obj.id(1))


@pytest.mark.parametrize("build, flip, reason", [
    (negated_flip_c2_post_hopf, False,
     "derived antipode needs a cocommutative carrier"),
    (lambda: trivial_post_hopf(sweedler_h4(QQ)), True,
     "derived antipode needs a cocommutative carrier"),
    (_zero_action_c2, True, "no solution of f * x = unit"),
], ids=["c2-negated-flip", "sweedler-h4", "c2-zero-action"])
def test_derived_antipode_suite_reports_when_antipode_is_missing(build, flip, reason):
    rep = derived_antipode_suite(build())
    laws = [r.law for r in derived_antipode_suite(sign_retraction_post_hopf()).results]
    assert len(laws) == 9
    assert [r.law for r in rep.results] == laws
    # the paired-action laws run exactly when the carrier is flip-braided
    assert [r.skipped for r in rep.results[:3]] == [not flip] * 3
    for r in rep.results[3:]:
        assert r.skipped and str(r.witness).startswith(reason), r.line()


def test_antipode_convolution_laws_explicitly():
    # id *bar S = eta . eps in the derived convolution
    w = sign_retraction_post_hopf()
    h = w.hopf
    i1 = h.obj.id(1)
    s = derived_antipode(w)
    bar = derived_product(w)
    assert bar @ tensor(i1, s) @ h.delta == h.eta @ h.eps
    assert s @ s == w.cocycle
    # lambda . cocycle = action paired with S
    assert h.antipode @ w.cocycle == w.action @ tensor(i1, s) @ h.delta


def test_cocycle_identity_equivalence():
    h = group_algebra(symmetric3(), QQ)
    triv = trivial_post_hopf(h)
    assert cocycle_identity_equivalence(triv) == (True, True)
    assert cocycle_identity_equivalence(sign_retraction_post_hopf()) == \
        (False, False)


def test_curried_action_invertible_on_twisted():
    w = sign_retraction_post_hopf()
    alpha = curried_action(w)
    beta = curried_action_inverse(w)
    assert alpha is not None and beta is not None


def test_split_idempotent_identities():
    g = symmetric3()
    q = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    sp = split_idempotent(q)
    assert sp.rank == 2
    assert sp.include @ sp.project == q
    assert sp.project @ sp.include == identity(QQ, shape(2))
    assert q @ sp.include == sp.include
    assert sp.project @ q == sp.project


def test_split_rejects_non_idempotent():
    g = symmetric3()
    h = group_algebra(g, QQ)
    with pytest.raises(NotIdempotent):
        split_idempotent(h.antipode.with_entry(0, 0, Fraction(2)))


def test_induced_hopf_is_c2_group_algebra():
    w = sign_retraction_post_hopf()
    ih, sp = induced_hopf(w)
    assert sp.rank == 2
    assert check_hopf(ih).passed
    assert check_cocommutative(ih)
    c2 = group_algebra(cyclic(2), QQ)
    assert ih.mu == c2.mu
    assert ih.delta == c2.delta
    assert ih.eta == c2.eta
    assert ih.eps == c2.eps
    assert ih.antipode == c2.antipode
    # independent antipode synthesis agrees
    assert solve_antipode(ih) == ih.antipode


def test_induced_hopf_identity_cocycle_is_whole_carrier():
    h = group_algebra(symmetric3(), QQ)
    w = trivial_post_hopf(h)
    ih, sp = induced_hopf(w)
    assert sp.rank == 6
    assert ih.mu == derived_product(w) == h.mu


def test_induced_bialgebra_gates():
    w = sign_retraction_post_hopf()
    # breaking unitality of the cocycle trips the precondition
    broken = PostHopfData(hopf=w.hopf, action=w.action,
                          cocycle=w.cocycle.with_entry(0, 0, Fraction(0)))
    with pytest.raises(PreconditionNotMet):
        induced_bialgebra(broken)


def test_functor_roundtrips():
    w = sign_retraction_post_hopf()
    assert roundtrip_check(w).passed
    h = group_algebra(symmetric3(), QQ)
    for build in (trivial_post_hopf, conjugation_post_hopf):
        assert roundtrip_check(build(h)).passed
    g = symmetric3()
    q = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    t = truss_from_idempotent(h, q)
    assert truss_roundtrip_check(t).passed


def test_truss_from_post_hopf_gate():
    # an action failing the class condition is refused
    h4 = sweedler_h4(QQ)
    w = trivial_post_hopf(h4)
    t = truss_from_post_hopf(w)  # trivial action passes even on H4
    assert check_truss(t).passed
    bad = PostHopfData(hopf=h4, action=h4.mu, cocycle=identity(QQ, shape(4)))
    with pytest.raises(ClassConditionFailed):
        truss_from_post_hopf(bad)


def test_class_condition_values():
    assert class_condition(sign_retraction_post_hopf())
    h4 = sweedler_h4(QQ)
    assert class_condition(trivial_post_hopf(h4))
    assert not class_condition(
        PostHopfData(hopf=h4, action=h4.mu, cocycle=identity(QQ, shape(4))))


def test_gf5_post_hopf():
    w = sign_retraction_post_hopf(Field.prime(5))
    assert check_post_hopf(w).passed
    assert check_twisted(w).passed
    ih, sp = induced_hopf(w)
    assert sp.rank == 2
    assert check_hopf(ih).passed
