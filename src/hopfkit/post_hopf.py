"""Weak twisted post-Hopf algebras.

A weak twisted post-Hopf algebra is a Hopf algebra ``H`` with an extra binary
operation ``action: H (x) H -> H`` and an endomorphism ``cocycle: H -> H``
(both coalgebra morphisms) satisfying

    cocycle . product'           = mu . (cocycle (x) action) . (delta (x) cocycle)
    action . (id (x) action)     = action . (product' (x) id)
    action . (id (x) mu)         = mu . (action (x) action) . (id (x) c (x) id)
                                     . (delta (x) id (x) id)

where ``product' = mu . (cocycle (x) action) . (delta (x) id)`` is the derived
product.  The *twisted* refinement adds ``cocycle . eta = eta`` and asks the
curried action ``alpha: H -> H* (x) H`` to be convolution invertible.

The module also provides the two functorial constructions to and from Hopf
trusses, the derived antipode of the derived product (for cocommutative
carriers), and the bialgebra/Hopf structure induced on the image of the
(idempotent) cocycle.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple

from .errors import (
    ClassConditionFailed,
    LawViolation,
    NonSymmetricBraiding,
    NotCocommutative,
    NotIdempotent,
    NotInvertible,
    PreconditionNotMet,
)
from .linmap import LinMap, TensorShape, tensor
from .structures import (
    BialgebraData,
    BraidedObject,
    CheckReport,
    HopfAlgebraData,
    LawResult,
    check_bialgebra,
    check_braided_object,
    check_cocommutative,
    check_hopf,
    coalgebra_morphism_report,
    cocommutativity_class_check,
    convolution_inverse,
    dual_algebra,
    require_flip,
    roundtrip_report,
    square_coalgebra_morphism_report,
)
from .truss import HopfTrussData, truss_action, truss_class_condition
from . import solve as _solve


@dataclass
class PostHopfData:
    hopf: HopfAlgebraData
    action: LinMap   # [n,n] -> [n]
    cocycle: LinMap  # [n] -> [n]
    _beta: Optional[LinMap] = dc_field(default=None, repr=False, compare=False)

    @property
    def obj(self) -> BraidedObject:
        return self.hopf.obj


# ---------------------------------------------------------------------------
# basic derived maps
# ---------------------------------------------------------------------------


def derived_product(w: PostHopfData) -> LinMap:
    """``mu . (cocycle (x) action) . (delta (x) id)``."""
    h = w.hopf
    i1 = w.obj.id(1)
    return h.mu @ tensor(w.cocycle, w.action) @ tensor(h.delta, i1)


def curried_action(w: PostHopfData) -> LinMap:
    """``alpha: [n] -> [n,n]``; ``alpha(h)`` is the operator ``x -> h |> x``
    written out against the self-dual basis pairing (flip braiding only)."""
    obj = w.obj
    pair = require_flip(obj, "currying the action")
    i1 = obj.id(1)
    return tensor(i1, w.action) @ tensor(obj.braid, i1) @ tensor(i1, pair.a)


def curried_action_inverse(w: PostHopfData) -> LinMap:
    """Convolution inverse ``beta`` of the curried action, in the convolution
    algebra of maps from the carrier coalgebra to the operator algebra on the
    dual pair.  Cached; raises :class:`NotInvertible` when absent."""
    if w._beta is None:
        obj = w.obj
        n = obj.dim
        alpha = curried_action(w)
        flat = TensorShape((n * n,))
        alpha_flat = alpha.reshape(TensorShape((n,)), flat)
        beta_flat = convolution_inverse(alpha_flat, w.hopf, dual_algebra(n, obj.field))
        w._beta = beta_flat.reshape(TensorShape((n,)), TensorShape((n, n)))
    return w._beta


def pairing_of_curried_action(w: PostHopfData) -> LinMap:
    """``(b (x) id) . (id (x) alpha)``; equals ``action . c`` and is always a
    coalgebra morphism out of the tensor-square coalgebra."""
    pair = require_flip(w.obj, "pairing the curried action")
    i1 = w.obj.id(1)
    return tensor(pair.b, i1) @ tensor(i1, curried_action(w))


def pairing_of_curried_inverse(w: PostHopfData) -> LinMap:
    """``(b (x) id) . (id (x) beta)``; being a coalgebra morphism is an extra,
    instance-dependent property gating the derived-antipode theorems."""
    pair = require_flip(w.obj, "pairing the inverse curried action")
    i1 = w.obj.id(1)
    return tensor(pair.b, i1) @ tensor(i1, curried_action_inverse(w))


def pairing_inverse_is_coalg_morphism(w: PostHopfData) -> bool:
    return square_coalgebra_morphism_report(pairing_of_curried_inverse(w), w.hopf).passed


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def check_post_hopf(w: PostHopfData) -> CheckReport:
    """The weak axioms, plus their unconditional consequences."""
    h = w.hopf
    obj = w.obj
    i1 = obj.id(1)
    c = obj.braid
    m = w.action
    phi = w.cocycle
    rep = CheckReport()
    rep.merge(check_hopf(h), prefix="hopf.")
    rep.merge(square_coalgebra_morphism_report(m, h, prefix="action."))
    rep.merge(coalgebra_morphism_report(phi, h, h, prefix="cocycle."))
    bar = derived_product(w)
    rep.add("post-hopf.cocycle-product-twist",
            phi @ bar, h.mu @ tensor(phi, m) @ tensor(h.delta, phi))
    rep.add("post-hopf.action-of-derived-product",
            m @ tensor(i1, m), m @ tensor(bar, i1))
    rep.add("post-hopf.action-distributes",
            m @ tensor(i1, h.mu),
            h.mu @ tensor(m, m) @ tensor(i1, c, i1) @ tensor(h.delta, i1, i1))
    rep.add("derived.action-on-unit", m @ tensor(i1, h.eta), h.eta @ h.eps)
    rep.add("derived.derived-product-right-unit", bar @ tensor(i1, h.eta), phi)
    return rep


def check_twisted(w: PostHopfData) -> CheckReport:
    """The twisted refinement: unital cocycle, invertible curried action, and
    (once both hold) the left-unit consequences.  Currying needs the flip
    braiding; on any other carrier the invertibility law is skipped, and with
    it the consequences."""
    h = w.hopf
    i1 = w.obj.id(1)
    rep = CheckReport()
    rep.add("twisted.cocycle-unital", w.cocycle @ h.eta, h.eta)
    invertible = "twisted.curried-action-invertible"
    try:
        curried_action_inverse(w)
        rep.add_result(LawResult(invertible, True))
    except NotInvertible as e:
        rep.add_result(LawResult(invertible, False, str(e)))
    except NonSymmetricBraiding:
        rep.add_skipped(invertible, "needs flip braiding")
    if all(r.passed and not r.skipped for r in rep.results):
        bar = derived_product(w)
        rep.add("twisted.derived.unit-acts-trivially",
                w.action @ tensor(h.eta, i1), i1)
        rep.add("twisted.derived.derived-product-left-unit",
                bar @ tensor(h.eta, i1), i1)
    else:
        rep.add_skipped("twisted.derived.unit-acts-trivially",
                        "twisted axioms not established")
        rep.add_skipped("twisted.derived.derived-product-left-unit",
                        "twisted axioms not established")
    return rep


def lemma_suite(w: PostHopfData) -> CheckReport:
    """Smaller consequences that deserve their own regression surface."""
    h = w.hopf
    obj = w.obj
    i1 = obj.id(1)
    m = w.action
    phi = w.cocycle
    rep = CheckReport()
    if phi @ h.eta == h.eta:
        rep.add("lemma.cocycle-idempotent", phi @ phi, phi)
    else:
        rep.add_skipped("lemma.cocycle-idempotent", "cocycle is not unital")
    rep.add("lemma.action-absorbs-cocycle", m @ tensor(phi, i1), m)
    if obj.is_flip:
        via = pairing_of_curried_action(w)
        rep.add("lemma.action-via-pairing", m, via @ obj.braid)
        rep.add("lemma.action-via-pairing-unbraided", m @ obj.braid_inverse(), via)
    else:
        rep.add_skipped("lemma.action-via-pairing", "needs flip braiding")
        rep.add_skipped("lemma.action-via-pairing-unbraided", "needs flip braiding")
    return rep


def class_condition(w: PostHopfData) -> bool:
    """The braided-cocommutativity gate, instantiated at the action."""
    return cocommutativity_class_check(w.action, w.hopf)


# ---------------------------------------------------------------------------
# functors to and from Hopf trusses
# ---------------------------------------------------------------------------


def truss_from_post_hopf(w: PostHopfData) -> HopfTrussData:
    """First product the carrier's, second the derived product, cocycle kept.

    Gated on the class condition at the action; the constructed truss's own
    derived action must come back equal to the action we started from."""
    if not class_condition(w):
        raise ClassConditionFailed(
            "the action fails the braided-cocommutativity class condition")
    h = w.hopf
    t = HopfTrussData(obj=w.obj, eta=h.eta, mu1=h.mu, mu2=derived_product(w),
                      eps=h.eps, delta=h.delta, antipode=h.antipode,
                      cocycle=w.cocycle)
    if truss_action(t) != w.action:
        raise LawViolation(
            "constructed truss does not induce the original action")
    return t


def post_hopf_from_truss(t: HopfTrussData) -> PostHopfData:
    """Keep the Hopf structure, take the truss action as the new action and
    the truss cocycle as the new cocycle.  Gated on the class condition."""
    if not truss_class_condition(t):
        raise ClassConditionFailed(
            "the truss action fails the braided-cocommutativity class condition")
    return PostHopfData(hopf=t.hopf(), action=truss_action(t), cocycle=t.cocycle)


def roundtrip_check(w: PostHopfData) -> CheckReport:
    """Truss then back: every structure map must return unchanged."""
    return roundtrip_report(post_hopf_from_truss(truss_from_post_hopf(w)), w)


def truss_roundtrip_check(t: HopfTrussData) -> CheckReport:
    """Post-Hopf then back: every structure map must return unchanged."""
    return roundtrip_report(truss_from_post_hopf(post_hopf_from_truss(t)), t)


# ---------------------------------------------------------------------------
# derived antipode of the derived product
# ---------------------------------------------------------------------------


def derived_antipode(w: PostHopfData) -> LinMap:
    """``(b (x) id) . ((antipode . cocycle) (x) beta) . c . delta``.

    Needs a cocommutative carrier; then ``c . delta == delta``, so the form
    without ``c`` is the same map and only this one is built."""
    h = w.hopf
    obj = w.obj
    if not check_cocommutative(h):
        raise NotCocommutative("derived antipode needs a cocommutative carrier")
    pair = require_flip(obj, "derived antipode")
    beta = curried_action_inverse(w)
    i1 = obj.id(1)
    core = tensor(pair.b, i1) @ tensor(h.antipode @ w.cocycle, beta)
    return core @ obj.braid @ h.delta


_PAIRED_ACTION_LAWS = (
    "antipode.paired-action.morphism.delta-commutes",
    "antipode.paired-action.morphism.eps-commutes",
    "antipode.paired-action-recovers-action",
)
_DERIVED_ANTIPODE_LAWS = (
    "antipode.morphism.delta-commutes",
    "antipode.morphism.eps-commutes",
    "antipode.square-is-cocycle",
    "antipode.cocycle-sandwich",
    "antipode.factors-twisted-antipode",
    "antipode.right-convolution-inverse",
)


def derived_antipode_suite(w: PostHopfData) -> CheckReport:
    """Everything provable about the derived antipode on this instance.

    The paired-action laws need the flip braiding, and the derived-antipode
    laws need :func:`derived_antipode` to exist; otherwise they are skipped
    with the reason.  The coalgebra-morphism laws and the square laws are
    only theorems when the paired inverse action is a coalgebra morphism; on
    instances where it is not, they are skipped too."""
    h = w.hopf
    obj = w.obj
    i1 = obj.id(1)
    rep = CheckReport()
    try:
        paired = pairing_of_curried_action(w)
    except NonSymmetricBraiding:
        for law in _PAIRED_ACTION_LAWS:
            rep.add_skipped(law, "needs flip braiding")
    else:
        rep.merge(square_coalgebra_morphism_report(
            paired, h, prefix="antipode.paired-action."))
        rep.add("antipode.paired-action-recovers-action",
                paired, w.action @ obj.braid)
    try:
        s = derived_antipode(w)
    except (NotCocommutative, NonSymmetricBraiding, NotInvertible) as e:
        for law in _DERIVED_ANTIPODE_LAWS:
            rep.add_skipped(law, str(e))
        return rep
    bar = derived_product(w)
    if pairing_inverse_is_coalg_morphism(w):
        rep.merge(coalgebra_morphism_report(s, h, h, prefix="antipode."))
        rep.add("antipode.square-is-cocycle", s @ s, w.cocycle)
        rep.add("antipode.cocycle-sandwich",
                w.cocycle @ s @ s @ w.cocycle, w.cocycle)
    else:
        for law in _DERIVED_ANTIPODE_LAWS[:4]:
            rep.add_skipped(law, "paired inverse action is not a coalgebra morphism")
    rep.add("antipode.factors-twisted-antipode",
            h.antipode @ w.cocycle, w.action @ tensor(i1, s) @ h.delta)
    rep.add("antipode.right-convolution-inverse",
            bar @ tensor(i1, s) @ h.delta, h.eta @ h.eps)
    return rep


def cocycle_identity_equivalence(w: PostHopfData) -> Tuple[bool, bool]:
    """Whether the cocycle is the identity, and whether the derived antipode
    is also a *left* convolution inverse for the derived product.  The two
    booleans agree whenever the paired inverse action is a coalgebra morphism
    (which is required here)."""
    if not pairing_inverse_is_coalg_morphism(w):
        raise PreconditionNotMet(
            "equivalence needs the paired inverse action to be a coalgebra morphism")
    h = w.hopf
    i1 = w.obj.id(1)
    s = derived_antipode(w)
    phi_is_id = w.cocycle == i1
    left_unit = (derived_product(w) @ tensor(s, i1) @ h.delta
                 == h.eta @ h.eps)
    return phi_is_id, left_unit


# ---------------------------------------------------------------------------
# idempotent splitting and the induced structure on the image
# ---------------------------------------------------------------------------


@dataclass
class IdempotentSplitting:
    """``project . include = id`` on the rank-``r`` image; ``include . project``
    is the idempotent itself."""

    project: LinMap  # [n] -> [r]
    include: LinMap  # [r] -> [n]
    rank: int


def split_idempotent(phi: LinMap) -> IdempotentSplitting:
    """Rank factorization through reduced row echelon form.

    ``include`` collects the pivot columns of the idempotent, ``project`` the
    nonzero reduced rows; all four section/retraction identities are
    asserted before returning."""
    if phi @ phi != phi:
        raise NotIdempotent("map is not idempotent, cannot split")
    field = phi.field
    n = phi.dom.total
    reduced, pivots = _solve.rref(_solve._rows_of(phi), n, field)
    r = len(pivots)
    rshape = TensorShape((r,))
    nshape = TensorShape((n,))
    include = LinMap(field, rshape, nshape,
                     tuple(dict(phi.cols[pc]) for pc in pivots))
    pcols = [dict() for _ in range(n)]
    for k, row in enumerate(reduced):
        for j, v in row.items():
            pcols[j][k] = v
    project = LinMap(field, nshape, rshape, tuple(pcols))
    ident_r = LinMap.from_cols(field, rshape, rshape,
                               [{k: field.one} for k in range(r)])
    if include @ project != phi or project @ include != ident_r:
        raise LawViolation("rank factorization failed to split the idempotent")
    if phi @ include != include or project @ phi != project:
        raise LawViolation("splitting does not absorb the idempotent")
    return IdempotentSplitting(project=project, include=include, rank=r)


def induced_bialgebra(w: PostHopfData,
                      split: Optional[IdempotentSplitting] = None
                      ) -> Tuple[BialgebraData, IdempotentSplitting]:
    """The bialgebra carried by the image of the cocycle.

    Product: the derived product squeezed through the splitting; coproduct,
    unit, counit, braiding likewise.  Gated on the twisted axioms and the
    class condition; the result is re-verified and any failure raised."""
    h = w.hopf
    if w.cocycle @ h.eta != h.eta:
        raise PreconditionNotMet("induced bialgebra needs a unital cocycle")
    curried_action_inverse(w)  # NotInvertible if the twisted axiom fails
    if not class_condition(w):
        raise ClassConditionFailed(
            "the action fails the braided-cocommutativity class condition")
    if split is None:
        split = split_idempotent(w.cocycle)
    p, i = split.project, split.include
    bar = derived_product(w)
    braid = tensor(p, p) @ w.obj.braid @ tensor(i, i)
    obj = BraidedObject(w.obj.field, split.rank, braid=braid)
    induced = BialgebraData(
        obj=obj,
        eta=p @ h.eta,
        mu=p @ bar @ tensor(i, i),
        eps=h.eps @ i,
        delta=tensor(p, p) @ h.delta @ i,
    )
    rep = check_bialgebra(induced)
    rep.merge(check_braided_object(obj), prefix="induced.")
    if not rep.passed:
        raise LawViolation("induced structure is not a bialgebra", report=rep)
    return induced, split


def induced_hopf(w: PostHopfData,
                 split: Optional[IdempotentSplitting] = None
                 ) -> Tuple[HopfAlgebraData, IdempotentSplitting]:
    """The Hopf algebra on the image: antipode ``project . S . include``.

    On top of the bialgebra gates this needs a cocommutative carrier and the
    paired inverse action to be a coalgebra morphism."""
    bialg, split = induced_bialgebra(w, split)
    if not pairing_inverse_is_coalg_morphism(w):
        raise PreconditionNotMet(
            "induced Hopf structure needs the paired inverse action "
            "to be a coalgebra morphism")
    s = derived_antipode(w)  # NotCocommutative when the carrier is not
    induced = HopfAlgebraData(
        obj=bialg.obj, eta=bialg.eta, mu=bialg.mu, eps=bialg.eps,
        delta=bialg.delta, antipode=split.project @ s @ split.include)
    rep = check_hopf(induced)
    if not rep.passed:
        raise LawViolation("induced structure is not a Hopf algebra", report=rep)
    if not check_cocommutative(induced):
        raise LawViolation("induced Hopf structure is not cocommutative")
    return induced, split


# ---------------------------------------------------------------------------
# stock instances on a given Hopf algebra
# ---------------------------------------------------------------------------


def trivial_post_hopf(h: HopfAlgebraData) -> PostHopfData:
    """Action ``eps (x) id``, cocycle the identity."""
    i1 = h.obj.id(1)
    return PostHopfData(hopf=h, action=tensor(h.eps, i1), cocycle=i1)


def conjugation_post_hopf(h: HopfAlgebraData) -> PostHopfData:
    """Action ``antipode(x_1) y x_2`` (conjugation from the left inverse),
    cocycle the identity.  Satisfies the axioms on cocommutative carriers."""
    i1 = h.obj.id(1)
    m = h.mu @ tensor(h.antipode, h.mu) @ tensor(i1, h.obj.braid) @ tensor(h.delta, i1)
    return PostHopfData(hopf=h, action=m, cocycle=i1)


__all__ = [
    "PostHopfData",
    "IdempotentSplitting",
    "derived_product",
    "curried_action",
    "curried_action_inverse",
    "pairing_of_curried_action",
    "pairing_of_curried_inverse",
    "pairing_inverse_is_coalg_morphism",
    "check_post_hopf",
    "check_twisted",
    "lemma_suite",
    "class_condition",
    "truss_from_post_hopf",
    "post_hopf_from_truss",
    "roundtrip_check",
    "truss_roundtrip_check",
    "derived_antipode",
    "derived_antipode_suite",
    "cocycle_identity_equivalence",
    "split_idempotent",
    "induced_bialgebra",
    "induced_hopf",
    "trivial_post_hopf",
    "conjugation_post_hopf",
]
