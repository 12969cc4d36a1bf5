"""Relative operator structures: axioms, the truss correspondence, the
adjunction data, and the constructions over group algebras."""
from fractions import Fraction

import pytest

from hopfkit.errors import (
    ClassConditionFailed,
    ConditionBFailed,
    LawViolation,
    NotATrussMorphism,
    NotAnRBMorphism,
    NotCocommutative,
    NotPhiTwisted,
    PreconditionNotMet,
    TNotInvertible,
)
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, TensorShape, UNIT_SHAPE, identity, shape, tensor
from hopfkit import post_hopf, rota_baxter
from hopfkit.cli import structure_report
from hopfkit.rota_baxter import (
    RotaBaxterData,
    adjunction_check,
    check_rb_morphism,
    check_rota_baxter,
    check_twisted_operator,
    derived_product,
    derived_product_check,
    is_phi_twisted,
    operator_action,
    rb_class_condition,
    rb_equivalence_check,
    rota_baxter_from_truss,
    truss_equivalence_check,
    truss_from_idempotent,
    truss_from_rota_baxter,
    truss_from_twisted_operator,
)
from hopfkit.storage import StructureFile
from hopfkit.structures import NonUnitalBialgebraData, BraidedObject
from hopfkit.truss import check_truss, truss_action

from helpers import c2_identity_truss, mixed_braiding_c2_rota_baxter


def dq(group_name, endo_name, fld=QQ):
    g = group_by_name(group_name)
    h = group_algebra(g, fld)
    q = linearize_endo(g, named_endo(g, endo_name), fld)
    return truss_from_idempotent(h, q)


def scalar_operator_example(endo_name="identity"):
    """H = QQ[C2], B the ground field, T the counit, action by scaling.

    The operator is far from invertible, so this exercises the genuinely
    weak corner of the theory."""
    g = cyclic(2)
    h = group_algebra(g, QQ)
    one = QQ.one
    bobj = BraidedObject(QQ, 1)
    w1 = TensorShape((1,))
    mk = lambda dom, cod, cols: LinMap.from_cols(QQ, dom, cod, cols)
    target = NonUnitalBialgebraData(
        bobj,
        mu=mk(TensorShape((1, 1)), w1, [{0: one}]),
        eps=mk(w1, UNIT_SHAPE, [{0: one}]),
        delta=mk(w1, TensorShape((1, 1)), [{0: one}]),
        eta=mk(UNIT_SHAPE, w1, [{0: one}]),
    )
    i1 = h.obj.id(1)
    action = tensor(identity(QQ, w1), i1).reshape(
        TensorShape((1, 2)), TensorShape((2,)))
    psi = linearize_endo(g, named_endo(g, endo_name), QQ)
    return RotaBaxterData(hopf=h, target=target, action=action,
                          operator=h.eps.reshape(shape(2), w1), cocycle=psi)


def test_lambda_builds_valid_wtrb():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    assert check_rota_baxter(w).passed
    assert w.operator == identity(QQ, shape(6))
    assert w.cocycle == t.cocycle
    assert w.action == truss_action(t)
    assert w.target.mu == t.mu2
    assert w.target.eta is None  # mu2 has no two-sided unit here


def test_lambda_detects_unital_second_product():
    t = dq("S3", "identity")
    w = rota_baxter_from_truss(t)
    assert w.target.eta == t.eta
    assert check_rota_baxter(w).passed
    assert check_twisted_operator(w).passed


def test_omega_inverts_lambda_exactly():
    for group, endo in (("S3", "sign-retraction"), ("S3", "trivial"),
                        ("C6", "idx:1"), ("Q8", "identity")):
        t = dq(group, endo)
        assert truss_from_rota_baxter(rota_baxter_from_truss(t)) == t
        assert truss_equivalence_check(t).passed


def test_scalar_operator_is_weak_wtrb():
    w = scalar_operator_example()
    rep = check_rota_baxter(w)
    assert rep.passed, str(rep)
    assert check_twisted_operator(w).passed  # B here is unital
    assert derived_product_check(w).passed


def test_scalar_operator_derived_product():
    # mu-tilde(h (x) h') = psi(h) h' for the scaling action
    w = scalar_operator_example()
    h = w.hopf
    i1 = h.obj.id(1)
    assert derived_product(w) == h.mu @ tensor(w.cocycle, i1)
    assert operator_action(w) == tensor(h.eps, i1)


def test_omega_on_scalar_operator_is_dq():
    w = scalar_operator_example()
    t = truss_from_rota_baxter(w)
    assert check_truss(t).passed
    assert t == dq("C2", "identity")


def test_equivalence_needs_invertible_operator():
    w = scalar_operator_example()
    with pytest.raises(TNotInvertible):
        rb_equivalence_check(w)


def test_equivalence_on_lambda_image():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    rep = rb_equivalence_check(w)
    assert rep.passed, str(rep)


def test_rb_morphism_identity():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    i6 = identity(QQ, shape(6))
    assert check_rb_morphism((i6, i6), w, w).passed


def test_rb_morphism_failure():
    wa = rota_baxter_from_truss(dq("S3", "sign-retraction"))
    wb = rota_baxter_from_truss(dq("S3", "identity"))
    i6 = identity(QQ, shape(6))
    assert not check_rb_morphism((i6, i6), wa, wb).passed


def test_adjunction_forward_and_backward():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    i6 = identity(QQ, shape(6))
    # forward: a truss morphism f: t -> Omega(w) lifts to (f, T.f) and back
    rep = adjunction_check(t, w, f=i6)
    assert rep.passed, str(rep)
    # the cocycle endomorphism is a second, non-identity morphism
    rep2 = adjunction_check(t, w, f=t.cocycle)
    assert rep2.passed, str(rep2)
    # backward: an operator-level pair projects to a truss morphism and back
    rep3 = adjunction_check(t, w, pair=(i6, w.operator))
    assert rep3.passed, str(rep3)


def test_adjunction_rejects_non_morphisms():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    bad = t.cocycle.with_entry(0, 0, Fraction(2))
    with pytest.raises(NotATrussMorphism):
        adjunction_check(t, w, f=bad)
    with pytest.raises(NotAnRBMorphism):
        adjunction_check(t, w, pair=(bad, bad))
    with pytest.raises(PreconditionNotMet):
        adjunction_check(t, w)


def _functor_called(*args):
    raise AssertionError("a functor image was built")


def test_adjunction_without_a_morphism_builds_nothing(monkeypatch):
    t = c2_identity_truss()
    w = rota_baxter_from_truss(t)
    monkeypatch.setattr(rota_baxter, "truss_from_rota_baxter", _functor_called)
    monkeypatch.setattr(rota_baxter, "rota_baxter_from_truss", _functor_called)
    with pytest.raises(PreconditionNotMet):
        adjunction_check(t, w)


def test_twisted_operator_truss_builds_its_product_once(monkeypatch):
    g = symmetric3()
    h = group_algebra(g, QQ)
    ups = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    triv = linearize_endo(g, named_endo(g, "trivial"), QQ)
    built = []
    product = rota_baxter._twisted_product
    monkeypatch.setattr(rota_baxter, "_twisted_product",
                        lambda *args: built.append(product(*args)) or built[-1])
    t = truss_from_twisted_operator(h, triv, ups)
    assert len(built) == 1 and t.mu2 is built[0]


def test_unital_operator_report_builds_its_post_hopf_view_once(monkeypatch):
    w = rota_baxter_from_truss(dq("S3", "identity"))
    assert w.target.eta is not None
    actions, products = [], []
    action = rota_baxter.operator_action
    product = post_hopf.derived_product
    monkeypatch.setattr(rota_baxter, "operator_action",
                        lambda *args: actions.append(action(*args)) or actions[-1])
    monkeypatch.setattr(post_hopf, "derived_product",
                        lambda *args: products.append(product(*args)) or products[-1])
    rep = structure_report(StructureFile("wtrb", w))
    assert rep.passed
    assert "twisted.derived.derived-product-left-unit" in [r.law for r in rep.results]
    # the rota-baxter and twisted checks share one view and one product
    assert len(actions) == 1
    assert len(products) >= 2 and all(p is products[0] for p in products)


def test_twisted_check_requires_unital_target():
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    assert w.target.eta is None
    rep = check_twisted_operator(w)
    assert [r.law for r in rep.results] == [
        "twisted.module-unital",
        "twisted.cocycle-unital",
        "twisted.operator-unital",
        "twisted.derived.unit-acts-trivially",
        "twisted.derived.derived-product-left-unit",
    ]
    assert all(r.skipped and r.witness == "needs a unital target"
               for r in rep.results)


def test_truss_from_idempotent_on_all_named_endos():
    g = symmetric3()
    h = group_algebra(g, QQ)
    i1 = h.obj.id(1)
    for name in ("identity", "trivial", "sign-retraction"):
        q = linearize_endo(g, named_endo(g, name), QQ)
        t = truss_from_idempotent(h, q)
        assert t.mu2 == h.mu @ tensor(q, i1)
        assert truss_action(t) == tensor(h.eps, i1)


def test_condition_b_failure_message():
    g = cyclic(2)
    h = group_algebra(g, QQ)
    with pytest.raises(ConditionBFailed):
        truss_from_idempotent(h, linearize_endo(g, (1, 1), QQ))


def test_phi_twisted_detection():
    g = symmetric3()
    h = group_algebra(g, QQ)
    q = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    triv = linearize_endo(g, named_endo(g, "trivial"), QQ)
    ident = identity(QQ, shape(6))
    # any idempotent endomorphism is twisted against the trivial endomorphism
    assert is_phi_twisted(h, triv, q)
    # and the trivial operator is twisted against anything
    assert is_phi_twisted(h, ident, triv)
    # but the identity operator twisted by itself is not (conjugation shows up)
    assert not is_phi_twisted(h, ident, ident)


def test_phi_twisted_preconditions():
    g = symmetric3()
    h = group_algebra(g, QQ)
    not_coalg = h.antipode.with_entry(0, 0, Fraction(2))
    with pytest.raises(PreconditionNotMet):
        is_phi_twisted(h, identity(QQ, shape(6)), not_coalg)
    with pytest.raises(PreconditionNotMet):
        is_phi_twisted(h, not_coalg, identity(QQ, shape(6)))


def test_truss_from_twisted_operator_matches_idempotent_truss():
    g = symmetric3()
    h = group_algebra(g, QQ)
    q = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    triv = linearize_endo(g, named_endo(g, "trivial"), QQ)
    t = truss_from_twisted_operator(h, triv, q)
    assert t == truss_from_idempotent(h, q)


def test_truss_from_twisted_operator_gates():
    h4 = sweedler_h4(QQ)
    i4 = identity(QQ, shape(4))
    with pytest.raises(NotCocommutative):
        truss_from_twisted_operator(h4, i4, i4)
    g = symmetric3()
    h = group_algebra(g, QQ)
    i6 = identity(QQ, shape(6))
    with pytest.raises(NotPhiTwisted):
        truss_from_twisted_operator(h, i6, i6)


def test_class_conditions():
    w = rota_baxter_from_truss(dq("S3", "sign-retraction"))
    assert rb_class_condition(w)
    assert rb_class_condition(scalar_operator_example())


def test_gf5_wtrb():
    t = dq("D4", "idx:3", Field.prime(5))
    w = rota_baxter_from_truss(t)
    assert check_rota_baxter(w).passed
    assert truss_from_rota_baxter(w) == t


def test_check_rota_baxter_reports_without_a_cross_braiding():
    # carrier braided by minus the flip, target by the flip: only the two
    # laws that move a target strand past a carrier strand cannot be stated
    rep = check_rota_baxter(mixed_braiding_c2_rota_baxter())
    flip_rep = check_rota_baxter(rota_baxter_from_truss(c2_identity_truss()))
    assert [r.law for r in rep.results] == [r.law for r in flip_rep.results]
    reason = "needs a braiding between target and carrier"
    assert [(r.law, r.witness) for r in rep.results if r.skipped] == [
        ("module.module-algebra.product-compat", reason),
        ("module.module-coalgebra.comul-compat", reason),
    ]


def test_a_w_without_truss_image_fails_the_functor_precondition():
    # rb_equivalence_check and adjunction_check build the truss of ``w``
    # before checking any law, so an unlawful ``w`` raises the functor's
    # failure there while check_rota_baxter reports on it
    t = dq("S3", "sign-retraction")
    w = rota_baxter_from_truss(t)
    bad = RotaBaxterData(hopf=w.hopf, target=w.target, action=w.action,
                         operator=w.operator, cocycle=w.cocycle.with_entry(0, 0, 2))
    msg = "^constructed truss does not induce the original action$"
    with pytest.raises(LawViolation, match=msg):
        rb_equivalence_check(bad)
    with pytest.raises(LawViolation, match=msg):
        adjunction_check(t, bad, f=t.obj.id(1))
    rep = check_rota_baxter(bad)
    assert len(rep.results) == 34 and not rep.passed
