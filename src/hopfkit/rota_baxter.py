"""Weak twisted relative Rota-Baxter operators.

The data: a Hopf algebra ``H``, a (possibly non-unital) bialgebra ``target``
acting on ``H`` by ``action: target (x) H -> H``, an operator
``T: H -> target`` and a cocycle ``Psi: H -> H`` (both coalgebra morphisms),
subject to

    mu_B . (T (x) T) = T . product'          (i)
    Psi  . product'  = mu . (Psi (x) opact) . (delta (x) Psi)   (ii)

where ``opact = action . (T (x) id)`` and ``product'`` is the derived product
``mu . (Psi (x) opact) . (delta (x) id)``.  The twisted refinement adds a
unital cocycle and (for unital targets) a unital operator.

Also here: the functors to and from Hopf trusses, the morphism bijection
between the two categories, the equivalence on invertible operators, and the
two example constructors (idempotent coalgebra endomorphisms, twisted
operators against a Hopf endomorphism).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    ConditionBFailed,
    LawViolation,
    NotATrussMorphism,
    NotAnRBMorphism,
    NotCocommutative,
    NotPhiTwisted,
    PreconditionNotMet,
    TNotInvertible,
)
from .linmap import LinMap, tensor
from .structures import (
    CheckReport,
    HopfAlgebraData,
    NonUnitalBialgebraData,
    adjoint_action,
    check_cocommutative,
    check_hopf,
    check_module_algebra,
    check_module_coalgebra,
    check_nonunital_bialgebra,
    coalgebra_morphism_report,
    convolution,
    hopf_morphism_report,
    roundtrip_report,
    square_coalgebra_morphism_report,
)
from .truss import HopfTrussData, check_truss_morphism, truss_action
from . import post_hopf
from . import solve as _solve


@dataclass
class RotaBaxterData:
    hopf: HopfAlgebraData
    target: NonUnitalBialgebraData
    action: LinMap    # [dim target, dim H] -> [dim H]
    operator: LinMap  # [dim H] -> [dim target]
    cocycle: LinMap   # [dim H] -> [dim H]

    @property
    def obj(self):
        return self.hopf.obj


def operator_action(w: RotaBaxterData) -> LinMap:
    """``action . (operator (x) id): [n,n] -> [n]``."""
    return w.action @ tensor(w.operator, w.obj.id(1))


def as_post_hopf(w: RotaBaxterData) -> post_hopf.PostHopfData:
    """The carrier with the operator action as its action, cocycle kept: the
    derived product, the class condition and the truss are all that
    structure's."""
    return post_hopf.PostHopfData(w.hopf, operator_action(w), w.cocycle)


def derived_product(w: RotaBaxterData) -> LinMap:
    """``mu . (cocycle (x) operator_action) . (delta (x) id)``."""
    return post_hopf.derived_product(as_post_hopf(w))


def rb_class_condition(w: RotaBaxterData) -> bool:
    """The braided-cocommutativity gate, instantiated at the operator action."""
    return post_hopf.class_condition(as_post_hopf(w))


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_rota_baxter(w: RotaBaxterData) -> CheckReport:
    """Every law of the weak structure, carrier and target included."""
    h = w.hopf
    b = w.target
    i1 = w.obj.id(1)
    rep = CheckReport()
    rep.merge(check_hopf(h), prefix="hopf.")
    rep.merge(check_nonunital_bialgebra(b), prefix="target.")
    # the action makes the carrier a non-unital module algebra-coalgebra
    rep.merge(check_module_algebra(b, w.action, h), prefix="module.")
    rep.merge(check_module_coalgebra(b, w.action, h), prefix="module.")
    rep.merge(coalgebra_morphism_report(w.operator, h, b, prefix="operator."))
    rep.merge(coalgebra_morphism_report(w.cocycle, h, h, prefix="cocycle."))
    ph = as_post_hopf(w)
    frak = ph.action
    tilde = post_hopf.derived_product(ph)
    rep.add("rota-baxter.operator-multiplicative",
            b.mu @ tensor(w.operator, w.operator), w.operator @ tilde)
    rep.add("rota-baxter.cocycle-product-twist",
            w.cocycle @ tilde,
            h.mu @ tensor(w.cocycle, frak) @ tensor(h.delta, w.cocycle))
    rep.add("derived.operator-action-on-unit",
            frak @ tensor(i1, h.eta), h.eta @ h.eps)
    rep.merge(square_coalgebra_morphism_report(frak, h,
                                               prefix="derived.operator-action."))
    rep.add("derived.operator-action-of-derived-product",
            frak @ tensor(tilde, i1), frak @ tensor(i1, frak))
    rep.add("derived.derived-product-right-unit",
            tilde @ tensor(i1, h.eta), w.cocycle)
    return rep


_TWISTED_LAWS = (
    "twisted.module-unital",
    "twisted.cocycle-unital",
    "twisted.operator-unital",
    "twisted.derived.unit-acts-trivially",
    "twisted.derived.derived-product-left-unit",
)


def check_twisted_operator(w: RotaBaxterData) -> CheckReport:
    """The twisted refinement; on a target without a unit every law is
    skipped.  The target's own laws, unit laws included, are
    :func:`check_rota_baxter`'s."""
    h = w.hopf
    b = w.target
    rep = CheckReport()
    if b.eta is None:
        for law in _TWISTED_LAWS:
            rep.add_skipped(law, "needs a unital target")
        return rep
    i1 = w.obj.id(1)
    ph = as_post_hopf(w)
    rep.add("twisted.module-unital", w.action @ tensor(b.eta, i1), i1)
    rep.add("twisted.cocycle-unital", w.cocycle @ h.eta, h.eta)
    rep.add("twisted.operator-unital", w.operator @ h.eta, b.eta)
    rep.add("twisted.derived.unit-acts-trivially", ph.action @ tensor(h.eta, i1), i1)
    rep.add("twisted.derived.derived-product-left-unit",
            post_hopf.derived_product(ph) @ tensor(h.eta, i1), i1)
    return rep


def derived_product_check(w: RotaBaxterData) -> CheckReport:
    """The derived product is associative, a coalgebra morphism (under the
    class condition), and right-unital onto the cocycle."""
    h = w.hopf
    i1 = w.obj.id(1)
    ph = as_post_hopf(w)
    tilde = post_hopf.derived_product(ph)
    rep = CheckReport()
    rep.add("derived-product.associative",
            tilde @ tensor(tilde, i1), tilde @ tensor(i1, tilde))
    if post_hopf.class_condition(ph):
        rep.merge(square_coalgebra_morphism_report(tilde, h, prefix="derived-product."))
    else:
        rep.add_skipped("derived-product.morphism.delta-commutes",
                        "class condition fails at the operator action")
        rep.add_skipped("derived-product.morphism.eps-commutes",
                        "class condition fails at the operator action")
    rep.add("derived-product.right-unit", tilde @ tensor(i1, h.eta), w.cocycle)
    return rep


# ---------------------------------------------------------------------------
# functors to and from Hopf trusses
# ---------------------------------------------------------------------------


def truss_from_rota_baxter(w: RotaBaxterData) -> HopfTrussData:
    """Second product the derived one, cocycle kept; the constructed truss
    must induce the operator action back."""
    return post_hopf.truss_from_post_hopf(as_post_hopf(w))


def rota_baxter_from_truss(t: HopfTrussData) -> RotaBaxterData:
    """The post-Hopf structure of ``t`` (class-condition gate included) with
    the second structure on the same carrier as target and the identity as
    operator, so the operator action is the truss action.  When the carrier
    unit is a two-sided unit for the second product it is carried over."""
    ph = post_hopf.post_hopf_from_truss(t)
    if post_hopf.derived_product(ph) != t.mu2:
        raise LawViolation(
            "constructed operator does not induce the original second product")
    i1 = t.obj.id(1)
    eta2 = None
    if t.mu2 @ tensor(t.eta, i1) == i1 and t.mu2 @ tensor(i1, t.eta) == i1:
        eta2 = t.eta
    return RotaBaxterData(hopf=ph.hopf, target=t.second(eta=eta2),
                          action=ph.action, operator=i1, cocycle=ph.cocycle)


# ---------------------------------------------------------------------------
# morphisms and the category equivalence
# ---------------------------------------------------------------------------


def check_rb_morphism(pair: Tuple[LinMap, LinMap], src: RotaBaxterData,
                      dst: RotaBaxterData) -> CheckReport:
    """``(f, g)``: f a Hopf morphism of carriers, g an algebra-coalgebra
    morphism of targets, intertwining operator, cocycle and action; the
    consequence at the operator action is re-checked."""
    f, g = pair
    rep = hopf_morphism_report(f, src.hopf, dst.hopf, prefix="carrier.")
    rep.add("target.morphism.mu-commutes",
            g @ src.target.mu, dst.target.mu @ tensor(g, g))
    if src.target.eta is not None and dst.target.eta is not None:
        rep.add("target.morphism.eta-commutes", g @ src.target.eta,
                dst.target.eta)
    rep.merge(coalgebra_morphism_report(g, src.target, dst.target, prefix="target."))
    rep.add("rb-morphism.operator-square",
            dst.operator @ f, g @ src.operator)
    rep.add("rb-morphism.cocycle-square", f @ src.cocycle, dst.cocycle @ f)
    rep.add("rb-morphism.action-square",
            f @ src.action, dst.action @ tensor(g, f))
    rep.add("derived.operator-action-square",
            f @ operator_action(src), operator_action(dst) @ tensor(f, f))
    return rep


def adjunction_check(t: HopfTrussData, w: RotaBaxterData,
                     f: Optional[LinMap] = None,
                     pair: Optional[Tuple[LinMap, LinMap]] = None) -> CheckReport:
    """The morphism bijection between truss maps into the truss of ``w`` and
    operator maps out of the operator of ``t``.

    Forward: a truss morphism ``f: t -> truss(w)`` becomes the pair
    ``(f, T . f)``; backward: a pair ``(x, y)`` collapses to ``x`` and is
    recovered because ``y = T . x`` is forced."""
    omega = truss_from_rota_baxter(w)
    lam = rota_baxter_from_truss(t)
    rep = CheckReport()
    if f is None and pair is None:
        raise PreconditionNotMet("nothing to check: no morphism supplied")
    if f is not None:
        tr = check_truss_morphism(f, t, omega)
        if not tr.passed:
            raise NotATrussMorphism(
                "supplied map is not a truss morphism into the derived truss",
                report=tr)
        sigma = (f, w.operator @ f)
        rep.merge(check_rb_morphism(sigma, lam, w), prefix="forward.")
        rep.add("adjunction.backward-of-forward", sigma[0], f)
    if pair is not None:
        pr = check_rb_morphism(pair, lam, w)
        if not pr.passed:
            raise NotAnRBMorphism(
                "supplied pair is not a morphism of operators", report=pr)
        x, y = pair
        rep.merge(check_truss_morphism(x, t, omega), prefix="backward.")
        rep.add("adjunction.forward-of-backward", y, w.operator @ x)
    return rep


def truss_equivalence_check(t: HopfTrussData) -> CheckReport:
    """Round trip through operators returns the same truss, map by map."""
    return roundtrip_report(truss_from_rota_baxter(rota_baxter_from_truss(t)), t)


def rb_equivalence_check(w: RotaBaxterData) -> CheckReport:
    """Round trip through trusses is isomorphic to ``w`` along ``(id, T)``.

    Needs the operator invertible; also verifies that the target product is
    the derived product conjugated by the operator."""
    if w.operator.dom.total != w.operator.cod.total:
        raise TNotInvertible("operator is not invertible: carrier dimensions differ")
    t_inv = _solve.invert(w.operator)
    if t_inv is None:
        raise TNotInvertible("operator is not invertible")
    lam = rota_baxter_from_truss(truss_from_rota_baxter(w))
    rep = check_rb_morphism((w.obj.id(1), w.operator), lam, w)
    rep.add("equivalence.target-product-conjugate",
            w.target.mu,
            w.operator @ derived_product(w) @ tensor(t_inv, t_inv))
    return rep


# ---------------------------------------------------------------------------
# example constructors
# ---------------------------------------------------------------------------


def truss_from_idempotent(d: HopfAlgebraData, q: LinMap) -> HopfTrussData:
    """Second product ``mu . (q (x) id)``, cocycle ``q``, for a coalgebra
    endomorphism with ``mu . (q (x) q) = q . mu . (q (x) id)``."""
    if not coalgebra_morphism_report(q, d, d).passed:
        raise PreconditionNotMet("q must be a coalgebra morphism")
    i1 = d.obj.id(1)
    lhs = d.mu @ tensor(q, q)
    rhs = q @ d.mu @ tensor(q, i1)
    if lhs != rhs:
        raise ConditionBFailed(
            "mu . (q (x) q) != q . mu . (q (x) id); q does not induce a truss")
    t = HopfTrussData(obj=d.obj, eta=d.eta, mu1=d.mu, mu2=d.mu @ tensor(q, i1),
                      eps=d.eps, delta=d.delta, antipode=d.antipode, cocycle=q)
    if truss_action(t) != tensor(d.eps, i1):
        raise LawViolation("induced action is not the counit action")
    return t


def _twisted_product(d: HopfAlgebraData, phi_endo: LinMap,
                     upsilon: LinMap) -> LinMap:
    """``mu . ((mu . (upsilon (x) id)) (x) (antipode . phi_endo . upsilon))
    . (id (x) c) . (delta (x) id)``: the product a twisted operator induces."""
    i1 = d.obj.id(1)
    inner = tensor(d.mu @ tensor(upsilon, i1), d.antipode @ phi_endo @ upsilon)
    return d.mu @ inner @ tensor(i1, d.obj.braid) @ tensor(d.delta, i1)


def is_phi_twisted(d: HopfAlgebraData, phi_endo: LinMap,
                   upsilon: LinMap) -> bool:
    """Whether ``upsilon`` solves the twisted-operator equation against the
    Hopf endomorphism ``phi_endo``."""
    if not coalgebra_morphism_report(upsilon, d, d).passed:
        raise PreconditionNotMet("the candidate operator must be a coalgebra morphism")
    if not hopf_morphism_report(phi_endo, d, d).passed:
        raise PreconditionNotMet("the twisting map must be a Hopf algebra endomorphism")
    return (d.mu @ tensor(upsilon, upsilon)
            == upsilon @ _twisted_product(d, phi_endo, upsilon))


def truss_from_twisted_operator(d: HopfAlgebraData, phi_endo: LinMap,
                                upsilon: LinMap) -> HopfTrussData:
    """On a cocommutative carrier, a twisted operator induces a truss with
    cocycle the convolution ``upsilon * (antipode . phi_endo . upsilon)``.

    The induced action must come out as the adjoint action against
    ``phi_endo . upsilon``; that identity is asserted, not assumed."""
    if not check_cocommutative(d):
        raise NotCocommutative("twisted-operator trusses need a cocommutative carrier")
    if not is_phi_twisted(d, phi_endo, upsilon):
        raise NotPhiTwisted("the candidate operator fails the twisted equation")
    i1 = d.obj.id(1)
    sigma = convolution(upsilon, d.antipode @ phi_endo @ upsilon, d, d)
    t = HopfTrussData(obj=d.obj, eta=d.eta, mu1=d.mu,
                      mu2=_twisted_product(d, phi_endo, upsilon), eps=d.eps,
                      delta=d.delta, antipode=d.antipode, cocycle=sigma)
    expected = adjoint_action(d) @ tensor(phi_endo @ upsilon, i1)
    if truss_action(t) != expected:
        raise LawViolation(
            "induced action differs from the adjoint form of the twisting map")
    return t
