"""Braided objects, (co/bi/Hopf) algebra data, axiom checkers, convolution.

Design rules, applied uniformly:

* constructors never validate -- every law lives in an explicit ``check_*``
  function, so deliberately broken data can be used in negative tests;
* checkers never short-circuit -- a report lists *every* law with a pass flag
  and, on failure, the first differing matrix entry as a witness;
* anything that needs the dual object (evaluation/coevaluation pairing)
  insists on the flip braiding and raises ``NonSymmetricBraiding`` otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from typing import Optional

from .errors import (
    NoAntipode,
    NonSymmetricBraiding,
    NotInvertible,
    ShapeMismatch,
)
from .fields import Field
from .linmap import (
    LinMap,
    TensorShape,
    UNIT_SHAPE,
    compose,
    first_mismatch,
    flip,
    identity,
    tensor,
)
from . import solve as _solve


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawResult:
    """One verified identity: a stable law id, a verdict, and a witness.

    ``witness`` is ``None`` on success and the first differing entry
    ``(row, col, lhs, rhs)`` (or a shape/field tag) on failure.  ``skipped``
    marks laws whose hypothesis did not hold on this instance; they never
    count as failures.
    """

    law: str
    passed: bool
    witness: object = None
    skipped: bool = False

    def line(self, fmt=str) -> str:
        if self.skipped:
            return f"skip  {self.law} ({self.witness})"
        if self.passed:
            return f"pass  {self.law}"
        return f"FAIL  {self.law}  witness={_format_witness(self.witness, fmt)}"


def _format_witness(w, fmt):
    if isinstance(w, tuple) and len(w) == 4 and isinstance(w[0], int):
        i, j, a, b = w
        return f"entry ({i},{j}): {fmt(a)} != {fmt(b)}"
    return repr(w)


@dataclass
class CheckReport:
    """An ordered list of law results; passes iff every non-skipped law passed."""

    results: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.results)

    def failures(self):
        return [r for r in self.results if not (r.passed or r.skipped)]

    def add(self, name: str, lhs: LinMap, rhs: LinMap) -> "CheckReport":
        w = first_mismatch(lhs, rhs)
        self.results.append(LawResult(name, w is None, w))
        return self

    def add_result(self, result: LawResult) -> "CheckReport":
        self.results.append(result)
        return self

    def add_skipped(self, name: str, reason: str) -> "CheckReport":
        self.results.append(LawResult(name, True, reason, skipped=True))
        return self

    def merge(self, other: "CheckReport", prefix: str = "") -> "CheckReport":
        for r in other.results:
            if prefix:
                r = LawResult(prefix + r.law, r.passed, r.witness, r.skipped)
            self.results.append(r)
        return self

    def lines(self):
        return [r.line() for r in self.results]

    def __str__(self):
        return "\n".join(self.lines())


def roundtrip_report(back, orig) -> CheckReport:
    """``roundtrip.<field>`` for every structure map of the dataclass
    ``orig`` against the same field of ``back``, in field order.  Nested
    structures (``hopf``) are walked in place; fields declared with
    ``compare=False`` (caches) and braided objects are not maps."""
    rep = CheckReport()
    for f in fields(orig):
        if not f.compare:
            continue
        lhs, rhs = getattr(back, f.name), getattr(orig, f.name)
        if isinstance(rhs, LinMap):
            rep.add(f"roundtrip.{f.name}", lhs, rhs)
        elif is_dataclass(rhs):
            rep.merge(roundtrip_report(lhs, rhs))
    return rep


# ---------------------------------------------------------------------------
# braided objects
# ---------------------------------------------------------------------------


class BraidedObject:
    """A dim-``n`` object together with a braiding ``c: [n,n] -> [n,n]``.

    Braidings between higher tensor powers of the object are derived from the
    generator by the hexagon rules
    ``c_{M,N(x)P} = (N (x) c_{M,P}) . (c_{M,N} (x) P)`` and
    ``c_{M(x)N,P} = (c_{M,P} (x) N) . (M (x) c_{N,P})``, with the ground field
    braiding trivially.  ``braid=None`` means the flip (symmetric) braiding.
    """

    __slots__ = ("field", "dim", "braid", "dual", "_flip", "_powers", "_braid_inv")

    def __init__(self, field: Field, dim: int, braid: Optional[LinMap] = None,
                 dual: "Optional[DualityData]" = None):
        self.field = field
        self.dim = dim
        self._flip = None
        if braid is None:
            braid = self.flip_braid()
        self.braid = braid
        self.dual = dual
        self._powers = {}
        self._braid_inv = None

    def __eq__(self, other):
        return (isinstance(other, BraidedObject) and self.field == other.field
                and self.dim == other.dim and self.braid == other.braid)

    def __hash__(self):
        return hash(("BraidedObject", self.field, self.dim))

    def flip_braid(self) -> LinMap:
        if self._flip is None:
            self._flip = flip(self.field, self.dim, self.dim)
        return self._flip

    @property
    def is_flip(self) -> bool:
        return self.braid == self.flip_braid()

    def shape(self, k: int = 1) -> TensorShape:
        return TensorShape((self.dim,) * k)

    def id(self, k: int = 1) -> LinMap:
        return identity(self.field, self.shape(k))

    def braid_inverse(self) -> LinMap:
        if self._braid_inv is None:
            inv = _solve.invert(self.braid)
            if inv is None:
                raise NotInvertible("braiding is not invertible")
            self._braid_inv = inv
        return self._braid_inv

    def braiding(self, j: int, k: int) -> LinMap:
        """The derived braiding ``[n]^j (x) [n]^k -> [n]^k (x) [n]^j``."""
        key = (j, k)
        got = self._powers.get(key)
        if got is not None:
            return got
        if j == 0 or k == 0:
            out = self.id(j + k)
        elif j == 1 and k == 1:
            out = self.braid
        elif j == 1:
            # c_{H, H^(k-1) (x) H}
            out = tensor(self.id(k - 1), self.braid) @ tensor(self.braiding(1, k - 1), self.id(1))
        else:
            # c_{H (x) H^(j-1), H^k}
            out = tensor(self.braiding(1, k), self.id(j - 1)) @ tensor(self.id(1), self.braiding(j - 1, k))
        self._powers[key] = out
        return out

    def __repr__(self):
        kind = "flip" if self.is_flip else "braided"
        return f"BraidedObject(dim={self.dim}, {self.field!r}, {kind})"


def braiding_between(left: BraidedObject, right: BraidedObject) -> LinMap:
    """The braiding ``left (x) right -> right (x) left`` between two objects.

    For a single object this is its own braid; across distinct objects only
    the symmetric case is determined by the data we carry.
    """
    if left is right or (left.dim == right.dim and left.braid == right.braid):
        return left.braid
    if left.is_flip and right.is_flip:
        return flip(left.field, left.dim, right.dim)
    raise NonSymmetricBraiding(
        "no braiding data between distinct non-flip braided objects"
    )


def check_braided_object(obj: BraidedObject, generators: Optional[dict] = None) -> CheckReport:
    """Hexagon consistency, Yang-Baxter, invertibility, naturality.

    ``generators`` maps names to structure maps ``[n]^j -> [n]^k``; each is
    tested against both naturality squares with one strand of the object on
    the other side.
    """
    rep = CheckReport()
    c = obj.braid
    i1 = obj.id(1)
    lhs = tensor(c, i1) @ tensor(i1, c) @ tensor(c, i1)
    rhs = tensor(i1, c) @ tensor(c, i1) @ tensor(i1, c)
    rep.add("braid.yang-baxter", lhs, rhs)
    # both hexagons must give the same c_{[n]^2,[n]^2}
    rep.add(
        "braid.hexagon-consistency",
        tensor(obj.braiding(1, 2), i1) @ tensor(i1, obj.braiding(1, 2)),
        tensor(i1, obj.braiding(2, 1)) @ tensor(obj.braiding(2, 1), i1),
    )
    try:
        inv = obj.braid_inverse()
        rep.add("braid.invertible", c @ inv, obj.id(2))
    except NotInvertible:
        rep.add_result(LawResult("braid.invertible", False, "singular braiding"))
    for name, f in (generators or {}).items():
        j = len(f.dom)
        k = len(f.cod)
        rep.add(
            f"braid.natural-left[{name}]",
            obj.braiding(k, 1) @ tensor(f, i1),
            tensor(i1, f) @ obj.braiding(j, 1),
        )
        rep.add(
            f"braid.natural-right[{name}]",
            obj.braiding(1, k) @ tensor(i1, f),
            tensor(f, i1) @ obj.braiding(1, j),
        )
    return rep


# ---------------------------------------------------------------------------
# structure data
# ---------------------------------------------------------------------------


@dataclass
class AlgebraData:
    obj: BraidedObject
    eta: LinMap  # [] -> [n]
    mu: LinMap   # [n,n] -> [n]


@dataclass
class CoalgebraData:
    obj: BraidedObject
    eps: LinMap    # [n] -> []
    delta: LinMap  # [n] -> [n,n]


@dataclass
class NonUnitalBialgebraData:
    """A coalgebra with an associative, comultiplicative product.

    ``eta`` is optional: some derived second products happen to be unital and
    carrying the unit along lets the twisted checks use it.
    """

    obj: BraidedObject
    mu: LinMap
    eps: LinMap
    delta: LinMap
    eta: Optional[LinMap] = None

    def as_coalgebra(self) -> CoalgebraData:
        return CoalgebraData(self.obj, self.eps, self.delta)


@dataclass
class BialgebraData:
    obj: BraidedObject
    eta: LinMap
    mu: LinMap
    eps: LinMap
    delta: LinMap

    def as_algebra(self) -> AlgebraData:
        return AlgebraData(self.obj, self.eta, self.mu)

    def as_coalgebra(self) -> CoalgebraData:
        return CoalgebraData(self.obj, self.eps, self.delta)


@dataclass
class HopfAlgebraData:
    obj: BraidedObject
    eta: LinMap
    mu: LinMap
    eps: LinMap
    delta: LinMap
    antipode: LinMap

    def as_algebra(self) -> AlgebraData:
        return AlgebraData(self.obj, self.eta, self.mu)

    def as_coalgebra(self) -> CoalgebraData:
        return CoalgebraData(self.obj, self.eps, self.delta)


@dataclass
class ModuleActionData:
    """A left action ``phi: acting (x) carrier -> carrier``.

    ``acting`` is any structure with ``obj``/``mu``/``eps``/``delta`` (and
    possibly ``eta``); the carrier object is implicit in ``phi.cod``.
    """

    acting: object
    phi: LinMap


@dataclass
class DualityData:
    """Coevaluation/evaluation of a self-dual basis: ``a: [] -> [n,n]``, ``b: [n,n] -> []``."""

    a: LinMap
    b: LinMap


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def check_algebra(a: AlgebraData) -> CheckReport:
    """Associativity and both unit laws."""
    i1 = a.obj.id(1)
    rep = CheckReport()
    rep.add("algebra.associative", a.mu @ tensor(a.mu, i1), a.mu @ tensor(i1, a.mu))
    rep.add("algebra.unit-left", a.mu @ tensor(a.eta, i1), i1)
    rep.add("algebra.unit-right", a.mu @ tensor(i1, a.eta), i1)
    return rep


def check_coalgebra(d: CoalgebraData) -> CheckReport:
    i1 = d.obj.id(1)
    rep = CheckReport()
    rep.add("coalgebra.coassociative",
            tensor(d.delta, i1) @ d.delta, tensor(i1, d.delta) @ d.delta)
    rep.add("coalgebra.counit-left", tensor(d.eps, i1) @ d.delta, i1)
    rep.add("coalgebra.counit-right", tensor(i1, d.eps) @ d.delta, i1)
    return rep


def _mult_comul_laws(rep, obj, mu, eps, delta, prefix=""):
    """mu is a coalgebra morphism (w.r.t. the tensor-product coalgebra)."""
    i1 = obj.id(1)
    rep.add(
        prefix + "bialgebra.delta-multiplicative",
        delta @ mu,
        tensor(mu, mu) @ tensor(i1, obj.braid, i1) @ tensor(delta, delta),
    )
    rep.add(prefix + "bialgebra.eps-multiplicative", eps @ mu, tensor(eps, eps))


def check_nonunital_bialgebra(b: NonUnitalBialgebraData) -> CheckReport:
    rep = CheckReport()
    i1 = b.obj.id(1)
    rep.add("algebra.associative", b.mu @ tensor(b.mu, i1), b.mu @ tensor(i1, b.mu))
    rep.merge(check_coalgebra(b.as_coalgebra()))
    _mult_comul_laws(rep, b.obj, b.mu, b.eps, b.delta)
    if b.eta is not None:
        rep.add("algebra.unit-left", b.mu @ tensor(b.eta, i1), i1)
        rep.add("algebra.unit-right", b.mu @ tensor(i1, b.eta), i1)
        rep.add("bialgebra.delta-unital", b.delta @ b.eta, tensor(b.eta, b.eta))
        rep.add("bialgebra.eps-unital", b.eps @ b.eta, identity(b.obj.field, UNIT_SHAPE))
    return rep


def check_bialgebra(b) -> CheckReport:
    """Full (unital, counital) bialgebra laws; accepts any data with the five maps."""
    obj = b.obj
    rep = CheckReport()
    rep.merge(check_algebra(AlgebraData(obj, b.eta, b.mu)))
    rep.merge(check_coalgebra(CoalgebraData(obj, b.eps, b.delta)))
    _mult_comul_laws(rep, obj, b.mu, b.eps, b.delta)
    rep.add("bialgebra.delta-unital", b.delta @ b.eta, tensor(b.eta, b.eta))
    rep.add("bialgebra.eps-unital", b.eps @ b.eta, identity(obj.field, UNIT_SHAPE))
    return rep


def check_hopf(h: HopfAlgebraData) -> CheckReport:
    """Bialgebra laws plus both antipode equalities."""
    rep = check_bialgebra(h)
    i1 = h.obj.id(1)
    unit = h.eta @ h.eps
    rep.add("hopf.antipode-left", h.mu @ tensor(h.antipode, i1) @ h.delta, unit)
    rep.add("hopf.antipode-right", h.mu @ tensor(i1, h.antipode) @ h.delta, unit)
    return rep


def antipode_property_check(h: HopfAlgebraData) -> CheckReport:
    """Derived antipode identities; the involution law only under (co)commutativity."""
    obj = h.obj
    i1 = obj.id(1)
    lam = h.antipode
    c = obj.braid
    rep = CheckReport()
    rep.add("antipode.anti-multiplicative", lam @ h.mu, h.mu @ tensor(lam, lam) @ c)
    rep.add("antipode.co-anti-morphism", h.delta @ lam, c @ tensor(lam, lam) @ h.delta)
    rep.add("antipode.unit", lam @ h.eta, h.eta)
    rep.add("antipode.counit", h.eps @ lam, h.eps)
    commutative = h.mu == h.mu @ c
    cocommutative = check_cocommutative(h)
    if commutative or cocommutative:
        rep.add("antipode.involutive", lam @ lam, i1)
    else:
        rep.add_skipped("antipode.involutive", "neither commutative nor cocommutative")
    return rep


def check_cocommutative(d) -> bool:
    """``c . delta == delta`` for anything carrying ``obj`` and ``delta``."""
    return d.obj.braid @ d.delta == d.delta


# -- morphism law helpers -----------------------------------------------------


def coalgebra_morphism_report(f: LinMap, src, dst, prefix: str = "") -> CheckReport:
    rep = CheckReport()
    rep.add(prefix + "morphism.delta-commutes", dst.delta @ f, tensor(f, f) @ src.delta)
    rep.add(prefix + "morphism.eps-commutes", dst.eps @ f, src.eps)
    return rep


def is_coalgebra_morphism(f: LinMap, src, dst) -> bool:
    return coalgebra_morphism_report(f, src, dst).passed


def square_coalgebra_morphism_report(f: LinMap, coalg, prefix: str = "") -> CheckReport:
    """``f: [n,n] -> [n]`` as a coalgebra morphism from the tensor-square
    coalgebra ``(delta (x) delta)`` braided into place."""
    obj = coalg.obj
    i1 = obj.id(1)
    rep = CheckReport()
    rep.add(
        prefix + "morphism.delta-commutes",
        coalg.delta @ f,
        tensor(f, f) @ tensor(i1, obj.braid, i1) @ tensor(coalg.delta, coalg.delta),
    )
    rep.add(prefix + "morphism.eps-commutes",
            coalg.eps @ f, tensor(coalg.eps, coalg.eps))
    return rep


def algebra_morphism_report(f: LinMap, src, dst, prefix: str = "",
                            unital: bool = True) -> CheckReport:
    rep = CheckReport()
    rep.add(prefix + "morphism.mu-commutes", f @ src.mu, dst.mu @ tensor(f, f))
    if unital:
        rep.add(prefix + "morphism.eta-commutes", f @ src.eta, dst.eta)
    return rep


def hopf_morphism_report(f: LinMap, src: HopfAlgebraData, dst: HopfAlgebraData,
                         prefix: str = "") -> CheckReport:
    """Bialgebra-morphism laws plus the (automatic, still checked) antipode square."""
    rep = algebra_morphism_report(f, src, dst, prefix)
    rep.merge(coalgebra_morphism_report(f, src, dst, prefix))
    rep.add(prefix + "morphism.antipode-commutes", f @ src.antipode, dst.antipode @ f)
    return rep


# -- module algebra / module coalgebra ----------------------------------------


def _action_pair(act: ModuleActionData, carrier_obj: BraidedObject) -> LinMap:
    """The diagonal action on carrier (x) carrier."""
    x = act.acting
    phi = act.phi
    ix = x.obj.id(1)
    ic = identity(carrier_obj.field, TensorShape((carrier_obj.dim,)))
    cxa = braiding_between(x.obj, carrier_obj)
    return tensor(phi, phi) @ tensor(ix, cxa, ic) @ tensor(x.delta, ic, ic)


def check_module(act: ModuleActionData, carrier_obj: BraidedObject) -> CheckReport:
    """The plain (non-unital) action law, plus the unital law when available."""
    x = act.acting
    phi = act.phi
    ic = identity(carrier_obj.field, TensorShape((carrier_obj.dim,)))
    ix = x.obj.id(1)
    rep = CheckReport()
    rep.add("module.action-associative",
            phi @ tensor(ix, phi), phi @ tensor(x.mu, ic))
    if getattr(x, "eta", None) is not None:
        rep.add("module.action-unital", phi @ tensor(x.eta, ic), ic)
    return rep


def check_module_algebra(act: ModuleActionData, alg: AlgebraData) -> CheckReport:
    """Module law + the action respecting the carrier's unit and product."""
    x = act.acting
    phi = act.phi
    obj = alg.obj
    ix = x.obj.id(1)
    rep = check_module(act, obj)
    rep.add("module-algebra.unit-compat",
            phi @ tensor(ix, alg.eta), alg.eta @ x.eps)
    rep.add("module-algebra.product-compat",
            phi @ tensor(ix, alg.mu), alg.mu @ _action_pair(act, obj))
    return rep


def check_module_coalgebra(act: ModuleActionData, coalg: CoalgebraData,
                           with_module_law: bool = True) -> CheckReport:
    x = act.acting
    phi = act.phi
    obj = coalg.obj
    ic = obj.id(1)
    ix = x.obj.id(1)
    cxd = braiding_between(x.obj, obj)
    rep = check_module(act, obj) if with_module_law else CheckReport()
    rep.add("module-coalgebra.counit-compat",
            coalg.eps @ phi, tensor(x.eps, coalg.eps))
    rep.add("module-coalgebra.comul-compat",
            coalg.delta @ phi,
            tensor(phi, phi) @ tensor(ix, cxd, ic) @ tensor(x.delta, coalg.delta))
    return rep


def adjoint_action(h: HopfAlgebraData) -> ModuleActionData:
    """Conjugation: ``mu . (mu (x) antipode) . (id (x) c) . (delta (x) id)``."""
    i1 = h.obj.id(1)
    phi = h.mu @ tensor(h.mu, h.antipode) @ tensor(i1, h.obj.braid) @ tensor(h.delta, i1)
    return ModuleActionData(acting=h, phi=phi)


# ---------------------------------------------------------------------------
# convolution calculus
# ---------------------------------------------------------------------------


def convolution(f: LinMap, g: LinMap, coalg, alg) -> LinMap:
    """``f * g = mu . (f (x) g) . delta`` for maps from a coalgebra to an algebra."""
    return alg.mu @ tensor(f, g) @ coalg.delta


def convolution_unit(coalg, alg) -> LinMap:
    return alg.eta @ coalg.eps


def convolution_inverse(f: LinMap, coalg, alg) -> LinMap:
    """Two-sided convolution inverse of ``f``, by exact linear solve.

    Solves ``f * x = eta . eps`` entrywise (the equation is linear in x) and
    then checks ``x * f = eta . eps``; raises :class:`NotInvertible` with the
    failing direction otherwise.
    """
    field = f.field
    unit = convolution_unit(coalg, alg)
    ncod = f.cod.total
    ndom = f.dom.total
    n_unknown = ncod * ndom
    cols = []
    for i in range(ncod):
        for j in range(ndom):
            basis = LinMap.single(field, f.dom, f.cod, i, j)
            conv = convolution(f, basis, coalg, alg)
            col = {}
            for jj, c in enumerate(conv.cols):
                for ii, v in c.items():
                    col[ii * ndom + jj] = v
            cols.append(col)
    system = LinMap(field, TensorShape((n_unknown,)), TensorShape((n_unknown,)),
                    tuple(cols))
    rhs = {}
    for jj, c in enumerate(unit.cols):
        for ii, v in c.items():
            rhs[ii * ndom + jj] = v
    x = _solve.solve(system, rhs)
    if x is None:
        raise NotInvertible("no solution of f * x = unit (not convolution invertible)")
    inv_cols = [dict() for _ in range(ndom)]
    for flat, v in x.items():
        inv_cols[flat % ndom][flat // ndom] = v
    inverse = LinMap(field, f.dom, f.cod, tuple(inv_cols))
    if convolution(inverse, f, coalg, alg) != unit:
        raise NotInvertible("solution of f * x = unit is not a two-sided inverse")
    return inverse


def solve_antipode(b) -> LinMap:
    """Convolution inverse of the identity on a bialgebra; raises :class:`NoAntipode`."""
    coalg = CoalgebraData(b.obj, b.eps, b.delta)
    alg = AlgebraData(b.obj, b.eta, b.mu)
    try:
        return convolution_inverse(b.obj.id(1), coalg, alg)
    except NotInvertible as e:
        raise NoAntipode(f"identity has no convolution inverse: {e}") from None


# ---------------------------------------------------------------------------
# cocommutativity-class condition
# ---------------------------------------------------------------------------


def cocommutativity_class_check(f: LinMap, coalg) -> bool:
    """The braided compatibility of ``f: [n,n] -> [n]`` with ``c . delta``.

    ``(f (x) id) . (id (x) c) . ((c . delta) (x) id)
      == (f (x) id) . (id (x) c) . (delta (x) id)``

    This holds for every ``f`` when the coalgebra is cocommutative and is the
    gate ("star" condition) for the functorial constructions downstream.
    """
    obj = coalg.obj
    i1 = obj.id(1)
    c = obj.braid
    left = tensor(f, i1) @ tensor(i1, c) @ tensor(c @ coalg.delta, i1)
    right = tensor(f, i1) @ tensor(i1, c) @ tensor(coalg.delta, i1)
    return left == right


# ---------------------------------------------------------------------------
# duality (flip braiding only)
# ---------------------------------------------------------------------------


def dual_pair(dim: int, fld: Field) -> DualityData:
    """Coevaluation/evaluation for the basis-wise self-pairing; snakes asserted."""
    n = dim
    one = fld.one
    a = LinMap.from_cols(fld, UNIT_SHAPE, TensorShape((n, n)),
                         [{i * n + i: one for i in range(n)}])
    bcols = [dict() for _ in range(n * n)]
    for i in range(n):
        bcols[i * n + i][0] = one
    b = LinMap(fld, TensorShape((n, n)), UNIT_SHAPE, tuple(bcols))
    i1 = identity(fld, TensorShape((n,)))
    if tensor(b, i1) @ tensor(i1, a) != i1 or tensor(i1, b) @ tensor(a, i1) != i1:
        raise AssertionError("snake identities failed (internal error)")
    return DualityData(a=a, b=b)


def require_flip(obj: BraidedObject, what: str) -> DualityData:
    """Duality data of ``obj``; duality is only defined here for the flip braiding."""
    if not obj.is_flip:
        raise NonSymmetricBraiding(f"{what} needs the flip braiding")
    if obj.dual is None:
        obj.dual = dual_pair(obj.dim, obj.field)
    return obj.dual


def dual_algebra(dim: int, fld: Field) -> AlgebraData:
    """The endomorphism algebra on the dual pair, as a dim^2 object.

    Product ``id (x) b (x) id`` (composition through the pairing), unit the
    coevaluation.  Used as the target algebra for convolution inverses of
    curried actions.
    """
    pair = dual_pair(dim, fld)
    n2 = dim * dim
    obj = BraidedObject(fld, n2)
    i1 = identity(fld, TensorShape((dim,)))
    mu = tensor(i1, pair.b, i1).reshape(TensorShape((n2, n2)), TensorShape((n2,)))
    eta = pair.a.reshape(UNIT_SHAPE, TensorShape((n2,)))
    return AlgebraData(obj, eta, mu)
