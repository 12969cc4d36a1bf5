"""Hopf trusses: one coalgebra carrying two compatible products.

The data is a Hopf algebra ``(H, eta, mu1, eps, delta, antipode)`` together
with a second associative product ``mu2`` and a coalgebra endomorphism
``sigma`` (the cocycle), tied together by the distributive-like law

    mu2 . (id (x) mu1)
      = mu1 . (mu2 (x) gamma) . (id (x) c (x) id) . (delta (x) id (x) id)

where ``gamma = mu1 . ((antipode . sigma) (x) mu2) . (delta (x) id)`` is the
action the second product induces on the first.
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
    coalgebra_morphism_report,
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
    return t.mu1 @ tensor(t.antipode @ t.cocycle, t.mu2) @ tensor(t.delta, i1)


def check_truss(t: HopfTrussData) -> CheckReport:
    """All defining laws: Hopf on the first product, non-unital bialgebra on
    the second, the cocycle a coalgebra endomorphism, and the mixed
    distributivity through ``gamma``."""
    obj = t.obj
    i1 = obj.id(1)
    rep = CheckReport()
    rep.merge(check_hopf(t.hopf()), prefix="first.")
    rep.merge(check_nonunital_bialgebra(t.second()), prefix="second.")
    rep.merge(coalgebra_morphism_report(t.cocycle, t, t, prefix="cocycle."))
    gamma = truss_action(t)
    rep.add(
        "truss.distributivity",
        t.mu2 @ tensor(i1, t.mu1),
        t.mu1 @ tensor(t.mu2, gamma) @ tensor(i1, obj.braid, i1)
        @ tensor(t.delta, i1, i1),
    )
    return rep


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
    rep = CheckReport()
    rep.add("derived.mu2-factors",
            t.mu2, t.mu1 @ tensor(t.cocycle, gamma) @ tensor(t.delta, i1))
    rep.add("derived.cocycle-recovered", t.cocycle, t.mu2 @ tensor(i1, t.eta))
    rep.add("derived.cocycle-mu2-linear",
            t.cocycle @ t.mu2, t.mu2 @ tensor(i1, t.cocycle))
    rep.merge(check_module_algebra(t.second(), gamma, t.hopf()),
              prefix="derived.gamma.")
    return rep


def truss_class_condition(t: HopfTrussData) -> bool:
    """The braided-cocommutativity gate, instantiated at ``gamma``."""
    return cocommutativity_class_check(truss_action(t), t)


def check_truss_morphism(f: LinMap, src: HopfTrussData, dst: HopfTrussData) -> CheckReport:
    """``f`` respects both products, unit, coalgebra, antipode; and therefore
    also the cocycles (the last square is a consequence, still checked)."""
    rep = hopf_morphism_report(f, src.hopf(), dst.hopf(), prefix="first.")
    rep.add("second.morphism.mu-commutes", f @ src.mu2, dst.mu2 @ tensor(f, f))
    rep.add("derived.cocycle-commutes", f @ src.cocycle, dst.cocycle @ f)
    return rep
