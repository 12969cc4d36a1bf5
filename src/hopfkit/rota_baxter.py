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

from dataclasses import dataclass, field as dc_field
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
    coalgebra_morphism_rows,
    convolution,
    hopf_morphism_report,
    roundtrip_report,
    tensor_square,
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
    _post_hopf: Optional[post_hopf.PostHopfData] = dc_field(
        default=None, init=False, repr=False, compare=False)

    @property
    def obj(self):
        return self.hopf.obj


def operator_action(w: RotaBaxterData) -> LinMap:
    """``action . (operator (x) id): [n,n] -> [n]``."""
    return w.action @ tensor(w.operator, w.obj.id(1))


def as_post_hopf(w: RotaBaxterData) -> post_hopf.PostHopfData:
    """The carrier with the operator action as its action, cocycle kept: the
    derived product, the class condition and the truss are all that
    structure's.  Cached, and with it that structure's derived product."""
    if w._post_hopf is None:
        w._post_hopf = post_hopf.PostHopfData(w.hopf, operator_action(w), w.cocycle)
    return w._post_hopf


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
    rep = CheckReport().merge(check_hopf(h), prefix="hopf.")
    rep.merge(check_nonunital_bialgebra(b), prefix="target.")
    # the action makes the carrier a non-unital module algebra-coalgebra
    rep.merge(check_module_algebra(b, w.action, h), prefix="module.")
    rep.merge(check_module_coalgebra(b, w.action, h), prefix="module.")
    rep.laws(coalgebra_morphism_rows(w.operator, h, b), prefix="operator.")
    rep.laws(coalgebra_morphism_rows(w.cocycle, h, h), prefix="cocycle.")
    ph = as_post_hopf(w)
    frak = ph.action
    tilde = post_hopf.derived_product(ph)
    rep.laws((
        ("rota-baxter.operator-multiplicative",
         lambda: b.mu @ tensor(w.operator, w.operator), lambda: w.operator @ tilde),
        ("rota-baxter.cocycle-product-twist",
         lambda: w.cocycle @ tilde,
         lambda: h.mu @ (tensor(w.cocycle, frak) @ tensor(h.delta, w.cocycle))),
        ("derived.operator-action-on-unit",
         lambda: frak @ tensor(i1, h.eta), lambda: h.eta @ h.eps),
    ))
    rep.laws(coalgebra_morphism_rows(frak, tensor_square(h), h),
             prefix="derived.operator-action.")
    return rep.laws((
        ("derived.operator-action-of-derived-product",
         lambda: frak @ tensor(tilde, i1), lambda: frak @ tensor(i1, frak)),
        ("derived.derived-product-right-unit",
         lambda: tilde @ tensor(i1, h.eta), lambda: w.cocycle),
    ))


def check_twisted_operator(w: RotaBaxterData) -> CheckReport:
    """The twisted refinement; on a target without a unit every law is
    skipped.  The target's own laws, unit laws included, are
    :func:`check_rota_baxter`'s."""
    h = w.hopf
    b = w.target
    i1 = w.obj.id(1)
    unital = b.eta is not None
    ph = as_post_hopf(w) if unital else None
    return CheckReport().laws((
        ("twisted.module-unital", lambda: w.action @ tensor(b.eta, i1), lambda: i1),
        *post_hopf.cocycle_unital_rows(w),
        ("twisted.operator-unital", lambda: w.operator @ h.eta, lambda: b.eta),
        *post_hopf.left_unit_rows(ph),
    ), None if unital else "needs a unital target")


def derived_product_check(w: RotaBaxterData) -> CheckReport:
    """The derived product is associative, a coalgebra morphism (under the
    class condition), and right-unital onto the cocycle."""
    h = w.hopf
    i1 = w.obj.id(1)
    ph = as_post_hopf(w)
    tilde = post_hopf.derived_product(ph)
    rep = CheckReport().laws((("derived-product.associative",
                               lambda: tilde @ tensor(tilde, i1),
                               lambda: tilde @ tensor(i1, tilde)),))
    star = post_hopf.class_condition(ph)
    rep.laws(coalgebra_morphism_rows(tilde, tensor_square(h) if star else None, h),
             None if star else "class condition fails at the operator action",
             prefix="derived-product.")
    return rep.laws((("derived-product.right-unit",
                      lambda: tilde @ tensor(i1, h.eta), lambda: w.cocycle),))


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
    s, d = src.target, dst.target
    rep = CheckReport().merge(hopf_morphism_report(f, src.hopf, dst.hopf), prefix="carrier.")
    rep.laws((("target.morphism.mu-commutes", lambda: g @ s.mu, lambda: d.mu @ tensor(g, g)),))
    if s.eta is not None and d.eta is not None:
        rep.laws((("target.morphism.eta-commutes", lambda: g @ s.eta, lambda: d.eta),))
    rep.laws(coalgebra_morphism_rows(g, s, d), prefix="target.")
    return rep.laws((
        ("rb-morphism.operator-square", lambda: dst.operator @ f, lambda: g @ src.operator),
        ("rb-morphism.cocycle-square", lambda: f @ src.cocycle, lambda: dst.cocycle @ f),
        ("rb-morphism.action-square",
         lambda: f @ src.action, lambda: dst.action @ tensor(g, f)),
        ("derived.operator-action-square",
         lambda: f @ operator_action(src), lambda: operator_action(dst) @ tensor(f, f)),
    ))


def adjunction_check(t: HopfTrussData, w: RotaBaxterData,
                     f: Optional[LinMap] = None,
                     pair: Optional[Tuple[LinMap, LinMap]] = None) -> CheckReport:
    """The morphism bijection between truss maps into the truss of ``w`` and
    operator maps out of the operator of ``t``.

    Forward: a truss morphism ``f: t -> truss(w)`` becomes the pair
    ``(f, T . f)``; backward: a pair ``(x, y)`` collapses to ``x`` and is
    recovered because ``y = T . x`` is forced.  Both functor images are built
    before any law is checked; a missing one raises the functor's failure
    (:class:`LawViolation`, :class:`ClassConditionFailed`) as a precondition."""
    if f is None and pair is None:
        raise PreconditionNotMet("nothing to check: no morphism supplied")
    omega = truss_from_rota_baxter(w)
    lam = rota_baxter_from_truss(t)
    rep = CheckReport()
    if f is not None:
        tr = check_truss_morphism(f, t, omega)
        if not tr.passed:
            raise NotATrussMorphism(
                "supplied map is not a truss morphism into the derived truss",
                report=tr)
        sigma = (f, w.operator @ f)
        rep.merge(check_rb_morphism(sigma, lam, w), prefix="forward.")
        rep.laws((("adjunction.backward-of-forward", lambda: sigma[0], lambda: f),))
    if pair is not None:
        pr = check_rb_morphism(pair, lam, w)
        if not pr.passed:
            raise NotAnRBMorphism(
                "supplied pair is not a morphism of operators", report=pr)
        x, y = pair
        rep.merge(check_truss_morphism(x, t, omega), prefix="backward.")
        rep.laws((("adjunction.forward-of-backward", lambda: y, lambda: w.operator @ x),))
    return rep


def truss_equivalence_check(t: HopfTrussData) -> CheckReport:
    """Round trip through operators returns the same truss, map by map."""
    return roundtrip_report(truss_from_rota_baxter(rota_baxter_from_truss(t)), t)


def rb_equivalence_check(w: RotaBaxterData) -> CheckReport:
    """Round trip through trusses is isomorphic to ``w`` along ``(id, T)``.

    Preconditions, raised before any law is checked: an invertible operator
    (:class:`TNotInvertible`) and a truss image of ``w`` (the functor's
    :class:`LawViolation` or :class:`ClassConditionFailed`).  Also verifies
    that the target product is the derived product conjugated by the operator."""
    if w.operator.dom.total != w.operator.cod.total:
        raise TNotInvertible("operator is not invertible: carrier dimensions differ")
    t_inv = _solve.invert(w.operator)
    if t_inv is None:
        raise TNotInvertible("operator is not invertible")
    lam = rota_baxter_from_truss(truss_from_rota_baxter(w))
    return check_rb_morphism((w.obj.id(1), w.operator), lam, w).laws((
        ("equivalence.target-product-conjugate", lambda: w.target.mu,
         lambda: w.operator @ derived_product(w) @ tensor(t_inv, t_inv)),))


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
                     upsilon: LinMap) -> Optional[LinMap]:
    """``mu . ((mu . (upsilon (x) id)) (x) (antipode . phi_endo . upsilon))
    . (id (x) c) . (delta (x) id)``, the product a twisted operator induces, or
    ``None`` when ``upsilon`` fails the twisted-operator equation against the
    Hopf endomorphism ``phi_endo``."""
    if not coalgebra_morphism_report(upsilon, d, d).passed:
        raise PreconditionNotMet("the candidate operator must be a coalgebra morphism")
    if not hopf_morphism_report(phi_endo, d, d).passed:
        raise PreconditionNotMet("the twisting map must be a Hopf algebra endomorphism")
    i1 = d.obj.id(1)
    lhs = d.mu @ tensor(upsilon, upsilon)
    inner = tensor(d.mu @ tensor(upsilon, i1), d.antipode @ phi_endo @ upsilon)
    product = d.mu @ (inner @ (tensor(i1, d.obj.braid) @ tensor(d.delta, i1)))
    return product if lhs == upsilon @ product else None


def is_phi_twisted(d: HopfAlgebraData, phi_endo: LinMap,
                   upsilon: LinMap) -> bool:
    """Whether ``upsilon`` solves the twisted-operator equation against the
    Hopf endomorphism ``phi_endo``."""
    return _twisted_product(d, phi_endo, upsilon) is not None


def truss_from_twisted_operator(d: HopfAlgebraData, phi_endo: LinMap,
                                upsilon: LinMap) -> HopfTrussData:
    """On a cocommutative carrier, a twisted operator induces a truss with
    cocycle the convolution ``upsilon * (antipode . phi_endo . upsilon)``.

    The induced action must come out as the adjoint action against
    ``phi_endo . upsilon``; that identity is asserted, not assumed."""
    if not check_cocommutative(d):
        raise NotCocommutative("twisted-operator trusses need a cocommutative carrier")
    mu2 = _twisted_product(d, phi_endo, upsilon)
    if mu2 is None:
        raise NotPhiTwisted("the candidate operator fails the twisted equation")
    i1 = d.obj.id(1)
    sigma = convolution(upsilon, d.antipode @ phi_endo @ upsilon, d, d)
    t = HopfTrussData(obj=d.obj, eta=d.eta, mu1=d.mu, mu2=mu2, eps=d.eps,
                      delta=d.delta, antipode=d.antipode, cocycle=sigma)
    expected = adjoint_action(d) @ tensor(phi_endo @ upsilon, i1)
    if truss_action(t) != expected:
        raise LawViolation(
            "induced action differs from the adjoint form of the twisting map")
    return t
