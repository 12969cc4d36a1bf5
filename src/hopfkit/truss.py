"""Hopf trusses: one coalgebra carrying two compatible products.

The data is a Hopf algebra ``(H, eta, mu1, eps, delta, antipode)`` together
with a second associative product ``mu2`` and a coalgebra endomorphism
``sigma`` (the cocycle), tied together by the distributive-like law

    mu2 . (id (x) mu1)
      = mu1 . (mu2 (x) gamma) . (id (x) c (x) id) . (delta (x) id (x) id)

where ``gamma = mu1 . ((antipode . sigma) (x) mu2) . (delta (x) id)`` is the
action the second product induces on the first.  The law is checked with
``mu2 (x) gamma`` read as ``(id (x) gamma) . (mu2 (x) id (x) id)``, so that
every ``n^3``-column step is a block read (see :mod:`hopfkit.linmap`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linmap import LinMap, tensor
from .structures import (
    BraidedObject,
    CheckReport,
    HopfAlgebraData,
    NonUnitalBialgebraData,
    check_hopf,
    check_module_algebra,
    check_nonunital_bialgebra,
    coalgebra_morphism_rows,
    cocommutativity_class_check,
    hopf_morphism_report,
)


@dataclass
class HopfTrussData:
    obj: BraidedObject
    eta: LinMap
    mu1: LinMap
    mu2: LinMap
    eps: LinMap
    delta: LinMap
    antipode: LinMap
    cocycle: LinMap  # sigma

    def hopf(self) -> HopfAlgebraData:
        """The first (Hopf) structure."""
        return HopfAlgebraData(self.obj, self.eta, self.mu1, self.eps,
                               self.delta, self.antipode)

    def second(self, eta: Optional[LinMap] = None) -> NonUnitalBialgebraData:
        """The second (generally non-unital) bialgebra structure."""
        return NonUnitalBialgebraData(self.obj, self.mu2, self.eps, self.delta,
                                      eta=eta)


def truss_action(t: HopfTrussData) -> LinMap:
    """``gamma = mu1 . ((antipode . sigma) (x) mu2) . (delta (x) id)``."""
    i1 = t.obj.id(1)
    return t.mu1 @ (tensor(t.antipode @ t.cocycle, t.mu2) @ tensor(t.delta, i1))


def check_truss(t: HopfTrussData) -> CheckReport:
    """All defining laws: Hopf on the first product, non-unital bialgebra on
    the second, the cocycle a coalgebra endomorphism, and the mixed
    distributivity through ``gamma``."""
    i1 = t.obj.id(1)
    rep = CheckReport().merge(check_hopf(t.hopf()), prefix="first.")
    rep.merge(check_nonunital_bialgebra(t.second()), prefix="second.")
    rep.laws(coalgebra_morphism_rows(t.cocycle, t, t), prefix="cocycle.")
    gamma = truss_action(t)
    return rep.laws(((
        "truss.distributivity",
        lambda: t.mu2 @ tensor(i1, t.mu1),
        lambda: (t.mu1 @ tensor(i1, gamma))
        @ (tensor(t.mu2, i1, i1) @ (tensor(i1, t.obj.braid, i1) @ tensor(t.delta, i1, i1))),
    ),))


def check_truss_derived(t: HopfTrussData) -> CheckReport:
    """Consequences of the truss laws, re-verified on concrete data:

    * the second product factors as ``mu1 . (sigma (x) gamma) . (delta (x) id)``;
    * the cocycle is recovered as ``mu2 . (id (x) eta)``;
    * the cocycle is left mu2-linear: ``sigma . mu2 = mu2 . (id (x) sigma)``;
    * ``gamma`` makes the first algebra a non-unital module algebra over the
      second structure.
    """
    i1 = t.obj.id(1)
    gamma = truss_action(t)
    rep = CheckReport().laws((
        ("derived.mu2-factors",
         lambda: t.mu2, lambda: t.mu1 @ (tensor(t.cocycle, gamma) @ tensor(t.delta, i1))),
        ("derived.cocycle-recovered", lambda: t.cocycle, lambda: t.mu2 @ tensor(i1, t.eta)),
        ("derived.cocycle-mu2-linear",
         lambda: t.cocycle @ t.mu2, lambda: t.mu2 @ tensor(i1, t.cocycle)),
    ))
    return rep.merge(check_module_algebra(t.second(), gamma, t.hopf()),
                     prefix="derived.gamma.")


def truss_class_condition(t: HopfTrussData) -> bool:
    """The braided-cocommutativity gate, instantiated at ``gamma``."""
    return cocommutativity_class_check(truss_action(t), t)


def check_truss_morphism(f: LinMap, src: HopfTrussData, dst: HopfTrussData) -> CheckReport:
    """``f`` respects both products, unit, coalgebra, antipode; and therefore
    also the cocycles (the last square is a consequence, still checked)."""
    rep = CheckReport().merge(hopf_morphism_report(f, src.hopf(), dst.hopf()), prefix="first.")
    return rep.laws((
        ("second.morphism.mu-commutes", lambda: f @ src.mu2, lambda: dst.mu2 @ tensor(f, f)),
        ("derived.cocycle-commutes", lambda: f @ src.cocycle, lambda: dst.cocycle @ f),
    ))
