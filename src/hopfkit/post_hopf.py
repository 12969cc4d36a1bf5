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

Currying reads ``H*`` through the basis pairing of ``H`` with itself: the
coevaluation ``a = sum_i e_i (x) e_i``, a map from the ground field to
``H (x) H``, and the evaluation ``b(e_i (x) e_j) = [i == j]``, a map from
``H (x) H`` to the ground field.  Under the flip braiding ``c``, which every
currying map demands, each use of ``a`` or ``b`` is a reindexing of entries:
:func:`_curry` and :func:`_uncurry` copy the entries directly, and no
tensor product or composite with ``a`` or ``b`` is built.  The maps that
use them equal these tensor forms:

    curried_action              = (id (x) action) . (c (x) id) . (id (x) a)
    pairing_of_curried_action   = (b (x) id) . (id (x) alpha)
    pairing_of_curried_inverse  = (b (x) id) . (id (x) beta)
    derived_antipode            = (b (x) id) . ((antipode . cocycle) (x) beta)
                                    . c . delta
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
from .linmap import LinMap, TensorShape, _terms, tensor
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
    coalgebra_morphism_rows,
    cocommutativity_class_check,
    convolution_inverse,
    dual_algebra,
    require_flip,
    roundtrip_report,
    tensor_square,
)
from .truss import HopfTrussData, truss_action
from . import solve as _solve


@dataclass
class PostHopfData:
    hopf: HopfAlgebraData
    action: LinMap   # [n,n] -> [n]
    cocycle: LinMap  # [n] -> [n]
    _bar: Optional[LinMap] = dc_field(default=None, init=False, repr=False,
                                      compare=False)
    _alpha: Optional[LinMap] = dc_field(default=None, init=False, repr=False,
                                        compare=False)
    _beta: Optional[LinMap] = dc_field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def obj(self) -> BraidedObject:
        return self.hopf.obj


# ---------------------------------------------------------------------------
# basic derived maps
# ---------------------------------------------------------------------------


def derived_product(w: PostHopfData) -> LinMap:
    """``mu . (cocycle (x) action) . (delta (x) id)``.  Cached."""
    if w._bar is None:
        h = w.hopf
        i1 = w.obj.id(1)
        w._bar = h.mu @ (tensor(w.cocycle, w.action) @ tensor(h.delta, i1))
    return w._bar


def _curry(m: LinMap) -> LinMap:
    """``[n,n] -> [n]`` to ``[n] -> [n,n]``: column ``h`` holds ``m[y, (h, i)]``
    at row ``i*n + y``.  Entries are copied, never multiplied, and zeros are
    not stored."""
    n = m.cod.total
    cols = [{} for _ in range(n)]
    for c, y, v in _terms(m):
        h, i = divmod(c, n)
        cols[h][i * n + y] = v
    return LinMap(m.field, TensorShape((n,)), TensorShape((n, n)), tuple(cols))


def _uncurry(m: LinMap) -> LinMap:
    """``[n] -> [n,n]`` to ``[n,n] -> [n]``: column ``x*n + h`` holds
    ``m[(x, y), h]`` at row ``y``.  Entries are copied, never multiplied, and
    zeros are not stored."""
    n = m.dom.total
    cols = [{} for _ in range(n * n)]
    for h, r, v in _terms(m):
        x, y = divmod(r, n)
        cols[x * n + h][y] = v
    return LinMap(m.field, TensorShape((n, n)), TensorShape((n,)), tuple(cols))


def curried_action(w: PostHopfData) -> LinMap:
    """``alpha: [n] -> [n,n]``; ``alpha(h)`` is the operator ``x -> h |> x``
    written out against the self-dual basis pairing (flip braiding only).

    Equals ``(id (x) action) . (c (x) id) . (id (x) a)``, read off the
    entries of the action by :func:`_curry`.  Cached."""
    require_flip(w.obj, "currying the action")
    if w._alpha is None:
        w._alpha = _curry(w.action)
    return w._alpha


def curried_action_inverse(w: PostHopfData) -> LinMap:
    """Convolution inverse ``beta`` of the curried action, in the convolution
    algebra of maps from the carrier coalgebra to the operator algebra on the
    dual pair.  Cached; raises :class:`NotInvertible` when absent."""
    if w._beta is None:
        n = w.obj.dim
        alpha_flat = curried_action(w).reshape(TensorShape((n,)), TensorShape((n * n,)))
        target = dual_algebra(n, w.obj.field)
        beta_flat = convolution_inverse(alpha_flat, w.hopf, target)
        w._beta = beta_flat.reshape(TensorShape((n,)), TensorShape((n, n)))
    return w._beta


def pairing_of_curried_action(w: PostHopfData) -> LinMap:
    """``(b (x) id) . (id (x) alpha)``, read off the entries of ``alpha`` by
    :func:`_uncurry`; equals ``action . c`` and is always a coalgebra
    morphism out of the tensor-square coalgebra."""
    require_flip(w.obj, "pairing the curried action")
    return _uncurry(curried_action(w))


def pairing_of_curried_inverse(w: PostHopfData) -> LinMap:
    """``(b (x) id) . (id (x) beta)``, read off the entries of ``beta`` by
    :func:`_uncurry`; being a coalgebra morphism is an extra,
    instance-dependent property gating the derived-antipode theorems."""
    require_flip(w.obj, "pairing the inverse curried action")
    return _uncurry(curried_action_inverse(w))


def pairing_inverse_is_coalg_morphism(w: PostHopfData) -> bool:
    return coalgebra_morphism_report(pairing_of_curried_inverse(w),
                                     tensor_square(w.hopf), w.hopf).passed


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
    rep = CheckReport().merge(check_hopf(h), prefix="hopf.")
    rep.laws(coalgebra_morphism_rows(m, tensor_square(h), h), prefix="action.")
    rep.laws(coalgebra_morphism_rows(phi, h, h), prefix="cocycle.")
    bar = derived_product(w)
    return rep.laws((
        ("post-hopf.cocycle-product-twist",
         lambda: phi @ bar, lambda: h.mu @ (tensor(phi, m) @ tensor(h.delta, phi))),
        ("post-hopf.action-of-derived-product",
         lambda: m @ tensor(i1, m), lambda: m @ tensor(bar, i1)),
        ("post-hopf.action-distributes",
         lambda: m @ tensor(i1, h.mu),
         lambda: (h.mu @ tensor(i1, m))
         @ (tensor(m, i1, i1) @ (tensor(i1, c, i1) @ tensor(h.delta, i1, i1)))),
        ("derived.action-on-unit", lambda: m @ tensor(i1, h.eta), lambda: h.eta @ h.eps),
        ("derived.derived-product-right-unit", lambda: bar @ tensor(i1, h.eta), lambda: phi),
    ))


def left_unit_rows(w: Optional[PostHopfData]):
    """The left-unit consequences of the twisted axioms on ``w``, as rows; ``w``
    is read only when a row runs, so it may be ``None`` if all are skipped."""
    return (
        ("twisted.derived.unit-acts-trivially",
         lambda: w.action @ tensor(w.hopf.eta, w.obj.id(1)), lambda: w.obj.id(1)),
        ("twisted.derived.derived-product-left-unit",
         lambda: derived_product(w) @ tensor(w.hopf.eta, w.obj.id(1)),
         lambda: w.obj.id(1)),
    )


def cocycle_unital_rows(w):
    """``cocycle . eta == eta`` as a row, for anything carrying ``hopf`` and ``cocycle``."""
    return (("twisted.cocycle-unital", lambda: w.cocycle @ w.hopf.eta, lambda: w.hopf.eta),)


def cocycle_unital_report(w: PostHopfData) -> CheckReport:
    """The first law of :func:`check_twisted` on its own."""
    return CheckReport().laws(cocycle_unital_rows(w))


def check_twisted(w: PostHopfData, unital: Optional[CheckReport] = None) -> CheckReport:
    """The twisted refinement: unital cocycle, invertible curried action, and
    (once both hold) the left-unit consequences.  Currying needs the flip
    braiding; on any other carrier the invertibility law is skipped, and with
    it the consequences.  ``unital`` is :func:`cocycle_unital_report` of
    ``w`` when the caller has it already."""
    rep = CheckReport().merge(cocycle_unital_report(w) if unital is None else unital)
    invertible = "twisted.curried-action-invertible"
    try:
        curried_action_inverse(w)
        rep.add_result(LawResult(invertible, True))
    except NotInvertible as e:
        rep.add_result(LawResult(invertible, False, str(e)))
    except NonSymmetricBraiding:
        rep.add_skipped(invertible, "needs flip braiding")
    established = all(r.passed and not r.skipped for r in rep.results)
    return rep.laws(left_unit_rows(w),
                    None if established else "twisted axioms not established")


def lemma_suite(w: PostHopfData) -> CheckReport:
    """Smaller consequences that deserve their own regression surface."""
    h = w.hopf
    obj = w.obj
    i1 = obj.id(1)
    m = w.action
    phi = w.cocycle
    rep = CheckReport().laws((("lemma.cocycle-idempotent", lambda: phi @ phi, lambda: phi),),
                             None if phi @ h.eta == h.eta else "cocycle is not unital")
    rep.laws((("lemma.action-absorbs-cocycle", lambda: m @ tensor(phi, i1), lambda: m),))
    via = pairing_of_curried_action(w) if obj.is_flip else None
    return rep.laws((
        ("lemma.action-via-pairing", lambda: m, lambda: via @ obj.braid),
        ("lemma.action-via-pairing-unbraided",
         lambda: m @ obj.braid_inverse(), lambda: via),
    ), None if obj.is_flip else "needs flip braiding")


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
    gamma = truss_action(t)
    if not cocommutativity_class_check(gamma, t):
        raise ClassConditionFailed(
            "the truss action fails the braided-cocommutativity class condition")
    return PostHopfData(hopf=t.hopf(), action=gamma, cocycle=t.cocycle)


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

    Built as ``uncurry(beta) . ((antipode . cocycle) (x) id) . c . delta``,
    the same map by the interchange law, with ``uncurry(beta)`` read off the
    entries of ``beta`` by :func:`_uncurry`.  Needs a cocommutative carrier;
    then ``c . delta == delta``, so the form without ``c`` is the same map
    and only this one is built."""
    return _derived_antipode(w)[0]


def _derived_antipode(w: PostHopfData) -> Tuple[LinMap, LinMap]:
    """:func:`derived_antipode` and :func:`pairing_of_curried_inverse`, the
    map it is built from."""
    h = w.hopf
    obj = w.obj
    if not check_cocommutative(h):
        raise NotCocommutative("derived antipode needs a cocommutative carrier")
    require_flip(obj, "derived antipode")
    paired = _uncurry(curried_action_inverse(w))
    return paired @ (tensor(h.antipode @ w.cocycle, obj.id(1))
                     @ (obj.braid @ h.delta)), paired


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
    flip = obj.is_flip
    skip = None if flip else "needs flip braiding"
    paired = pairing_of_curried_action(w) if flip else None
    square = tensor_square(h) if flip else None
    rep = CheckReport().laws(coalgebra_morphism_rows(paired, square, h), skip,
                             prefix="antipode.paired-action.")
    rep.laws((("antipode.paired-action-recovers-action",
               lambda: paired, lambda: w.action @ obj.braid),), skip)
    try:
        (s, paired_inverse), skip = _derived_antipode(w), None
    except (NotCocommutative, NonSymmetricBraiding, NotInvertible) as e:
        s, skip = None, str(e)
    theorems = skip
    # ``square`` is built: the derived antipode exists only under the flip
    if skip is None and not coalgebra_morphism_report(paired_inverse, square, h).passed:
        theorems = "paired inverse action is not a coalgebra morphism"
    rep.laws(coalgebra_morphism_rows(s, h, h), theorems, prefix="antipode.")
    rep.laws((
        ("antipode.square-is-cocycle", lambda: s @ s, lambda: w.cocycle),
        ("antipode.cocycle-sandwich",
         lambda: w.cocycle @ s @ s @ w.cocycle, lambda: w.cocycle),
    ), theorems)
    return rep.laws((
        ("antipode.factors-twisted-antipode",
         lambda: h.antipode @ w.cocycle, lambda: w.action @ (tensor(i1, s) @ h.delta)),
        ("antipode.right-convolution-inverse",
         lambda: derived_product(w) @ (tensor(i1, s) @ h.delta), lambda: h.eta @ h.eps),
    ), skip)


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
    left_unit = (derived_product(w) @ (tensor(s, i1) @ h.delta)
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
    braid = tensor(p, p) @ (w.obj.braid @ tensor(i, i))
    obj = BraidedObject(w.obj.field, split.rank, braid=braid)
    induced = BialgebraData(
        obj=obj,
        eta=p @ h.eta,
        mu=p @ bar @ tensor(i, i),
        eps=h.eps @ i,
        delta=tensor(p, p) @ (h.delta @ i),
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
    m = h.mu @ (tensor(h.antipode, h.mu) @ (tensor(i1, h.obj.braid) @ tensor(h.delta, i1)))
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
    "cocycle_unital_rows",
    "cocycle_unital_report",
    "check_twisted",
    "left_unit_rows",
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
