"""Braided objects, (co/bi/Hopf) algebra data, axiom checkers, convolution.

Design rules, applied uniformly:

* constructors never validate -- every law lives in an explicit ``check_*``
  function, so deliberately broken data can be used in negative tests;
* checkers, convolution helpers and constructions take the structure they
  work on and read ``obj``/``eta``/``mu``/``eps``/``delta``/... from it; any
  structure carrying the attributes a function reads will do;
* checkers never short-circuit and never raise -- a report lists *every* law
  with a pass flag and, on failure, the first differing matrix entry as a
  witness; a law whose hypothesis fails on the instance (no flip braiding, a
  non-cocommutative carrier, ...) is reported as skipped, with the reason;
* every law is a row ``(law id, lhs, rhs)`` with zero-argument sides, built and
  compared only in :meth:`CheckReport.laws`; a gate hands it its rows with its
  skip reason, so a law id is written once and a skipped law builds no map;
* currying an action reads ``H*`` through the basis pairing, a map of braided
  objects only under the flip, so a construction that curries insists on the
  flip braiding and raises ``NonSymmetricBraiding`` otherwise.
"""
from __future__ import annotations

from bisect import bisect_left
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
    _dict_cols,
    _terms,
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

    def line(self) -> str:
        if self.skipped:
            return f"skip  {self.law} ({self.witness})"
        if self.passed:
            return f"pass  {self.law}"
        return f"FAIL  {self.law}  witness={_format_witness(self.witness)}"


def is_entry_witness(w) -> bool:
    """Whether ``w`` is a first differing entry ``(row, col, lhs, rhs)``."""
    return isinstance(w, tuple) and len(w) == 4 and isinstance(w[0], int)


def _format_witness(w):
    if is_entry_witness(w):
        i, j, a, b = w
        return f"entry ({i},{j}): {a} != {b}"
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
        """Compare the two built sides of a law.  Every compared law passes
        through here exactly once, from :meth:`laws`."""
        w = first_mismatch(lhs, rhs)
        self.results.append(LawResult(name, w is None, w))
        return self

    def add_result(self, result: LawResult) -> "CheckReport":
        self.results.append(result)
        return self

    def add_skipped(self, name: str, reason: str) -> "CheckReport":
        self.results.append(LawResult(name, True, reason, skipped=True))
        return self

    def laws(self, rows, skip: Optional[str] = None, prefix: str = "") -> "CheckReport":
        """Check each ``(law id, lhs, rhs)`` row in order, lhs built before rhs,
        through :meth:`add`, or, given a ``skip`` reason, list it unevaluated."""
        for name, lhs, rhs in rows:
            if skip is None:
                self.add(prefix + name, lhs(), rhs())
            else:
                self.add_skipped(prefix + name, skip)
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
            rep.laws(((f"roundtrip.{f.name}", lambda: lhs, lambda: rhs),))
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

    ``is_flip`` is decided once, here (true for ``braid=None`` and for a braid
    equal to the flip); the ``n^2``-column flip matrix is only built on the
    first read of ``braid``.  Every derived braiding is kept once built, and
    so is every identity: ``id(k)`` is ``braiding(0, k)``.
    """

    __slots__ = ("field", "dim", "is_flip", "_braid", "_powers", "_braid_inv")

    def __init__(self, field: Field, dim: int, braid: Optional[LinMap] = None):
        self.field = field
        self.dim = dim
        self.is_flip = braid is None or braid == flip(field, dim, dim)
        self._braid = braid
        self._powers = {}
        self._braid_inv = None

    @property
    def braid(self) -> LinMap:
        if self._braid is None:
            self._braid = flip(self.field, self.dim, self.dim)
        return self._braid

    def __eq__(self, other):
        return (isinstance(other, BraidedObject) and self.field == other.field
                and self.dim == other.dim and self.is_flip == other.is_flip
                and (self.is_flip or self.braid == other.braid))

    def __hash__(self):
        return hash(("BraidedObject", self.field, self.dim))

    def shape(self, k: int = 1) -> TensorShape:
        return TensorShape((self.dim,) * k)

    def id(self, k: int = 1) -> LinMap:
        return self.braiding(0, k)

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
            out = identity(self.field, self.shape(j + k))
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


def braiding_between(left: BraidedObject, right: BraidedObject) -> Optional[LinMap]:
    """The braiding ``left (x) right -> right (x) left`` between two objects.

    For a single object this is its own braid; across distinct objects only
    the symmetric case is determined by the data we carry (else ``None``).
    """
    if left is right or left == right:
        return left.braid
    if left.is_flip and right.is_flip:
        return flip(left.field, left.dim, right.dim)
    return None


def check_braided_object(obj: BraidedObject, generators: Optional[dict] = None) -> CheckReport:
    """Hexagon consistency, Yang-Baxter, invertibility, naturality.

    ``generators`` maps names to structure maps ``[n]^j -> [n]^k``; each is
    tested against both naturality squares with one strand of the object on
    the other side.
    """
    c = obj.braid
    i1 = obj.id(1)
    rep = CheckReport().laws((
        ("braid.yang-baxter",
         lambda: tensor(c, i1) @ (tensor(i1, c) @ tensor(c, i1)),
         lambda: tensor(i1, c) @ (tensor(c, i1) @ tensor(i1, c))),
        # both hexagons must give the same c_{[n]^2,[n]^2}
        ("braid.hexagon-consistency",
         lambda: tensor(obj.braiding(1, 2), i1) @ tensor(i1, obj.braiding(1, 2)),
         lambda: tensor(i1, obj.braiding(2, 1)) @ tensor(obj.braiding(2, 1), i1)),
    ))
    try:
        rep.laws((("braid.invertible", lambda: c @ obj.braid_inverse(), lambda: obj.id(2)),))
    except NotInvertible:
        rep.add_result(LawResult("braid.invertible", False, "singular braiding"))
    for name, f in (generators or {}).items():
        j = len(f.dom)
        k = len(f.cod)
        # checked in its own iteration: a side reads this iteration's f, j, k
        rep.laws((
            (f"braid.natural-left[{name}]",
             lambda: obj.braiding(k, 1) @ tensor(f, i1),
             lambda: tensor(i1, f) @ obj.braiding(j, 1)),
            (f"braid.natural-right[{name}]",
             lambda: obj.braiding(1, k) @ tensor(i1, f),
             lambda: tensor(f, i1) @ obj.braiding(1, j)),
        ))
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


@dataclass
class BialgebraData:
    obj: BraidedObject
    eta: LinMap
    mu: LinMap
    eps: LinMap
    delta: LinMap


@dataclass
class HopfAlgebraData:
    obj: BraidedObject
    eta: LinMap
    mu: LinMap
    eps: LinMap
    delta: LinMap
    antipode: LinMap

    def as_coalgebra(self) -> CoalgebraData:
        """The coalgebra part alone, as a value of its own."""
        return CoalgebraData(self.obj, self.eps, self.delta)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _algebra_rows(a):
    """Associativity, then the two unit laws, which read ``eta``."""
    i1 = a.obj.id(1)
    return (
        ("algebra.associative",
         lambda: a.mu @ tensor(a.mu, i1), lambda: a.mu @ tensor(i1, a.mu)),
        ("algebra.unit-left", lambda: a.mu @ tensor(a.eta, i1), lambda: i1),
        ("algebra.unit-right", lambda: a.mu @ tensor(i1, a.eta), lambda: i1),
    )


def _unital_rows(b):
    """The coalgebra maps respect the unit."""
    return (
        ("bialgebra.delta-unital",
         lambda: b.delta @ b.eta, lambda: tensor(b.eta, b.eta)),
        ("bialgebra.eps-unital",
         lambda: b.eps @ b.eta, lambda: identity(b.obj.field, UNIT_SHAPE)),
    )


def _coalgebra_rows(d):
    """Coassociativity and both counit laws."""
    i1 = d.obj.id(1)
    return (
        ("coalgebra.coassociative",
         lambda: tensor(d.delta, i1) @ d.delta, lambda: tensor(i1, d.delta) @ d.delta),
        ("coalgebra.counit-left", lambda: tensor(d.eps, i1) @ d.delta, lambda: i1),
        ("coalgebra.counit-right", lambda: tensor(i1, d.eps) @ d.delta, lambda: i1),
    )


def _mult_comul_rows(b):
    """mu is a coalgebra morphism (w.r.t. the tensor-product coalgebra)."""
    i1 = b.obj.id(1)
    return (
        ("bialgebra.delta-multiplicative",
         lambda: b.delta @ b.mu,
         lambda: tensor(b.mu, b.mu) @ (tensor(i1, b.obj.braid, i1) @ tensor(b.delta, b.delta))),
        ("bialgebra.eps-multiplicative", lambda: b.eps @ b.mu, lambda: tensor(b.eps, b.eps)),
    )


def check_nonunital_bialgebra(b: NonUnitalBialgebraData) -> CheckReport:
    associative, *unit = _algebra_rows(b)
    rows = (associative, *_coalgebra_rows(b), *_mult_comul_rows(b))
    if b.eta is not None:
        rows += (*unit, *_unital_rows(b))
    return CheckReport().laws(rows)


def check_bialgebra(b) -> CheckReport:
    """Full (unital, counital) bialgebra laws."""
    return CheckReport().laws((*_algebra_rows(b), *_coalgebra_rows(b),
                               *_mult_comul_rows(b), *_unital_rows(b)))


def check_hopf(h: HopfAlgebraData) -> CheckReport:
    """Bialgebra laws plus both antipode equalities."""
    rep = check_bialgebra(h)
    i1 = h.obj.id(1)
    unit = h.eta @ h.eps
    return rep.laws((
        ("hopf.antipode-left",
         lambda: h.mu @ (tensor(h.antipode, i1) @ h.delta), lambda: unit),
        ("hopf.antipode-right",
         lambda: h.mu @ (tensor(i1, h.antipode) @ h.delta), lambda: unit),
    ))


def antipode_property_check(h: HopfAlgebraData) -> CheckReport:
    """Derived antipode identities; the involution law only under (co)commutativity."""
    obj = h.obj
    i1 = obj.id(1)
    lam = h.antipode
    c = obj.braid
    rep = CheckReport().laws((
        ("antipode.anti-multiplicative",
         lambda: lam @ h.mu, lambda: h.mu @ (tensor(lam, lam) @ c)),
        ("antipode.co-anti-morphism",
         lambda: h.delta @ lam, lambda: c @ (tensor(lam, lam) @ h.delta)),
        ("antipode.unit", lambda: lam @ h.eta, lambda: h.eta),
        ("antipode.counit", lambda: h.eps @ lam, lambda: h.eps),
    ))
    symmetric = h.mu == h.mu @ c or check_cocommutative(h)
    return rep.laws((("antipode.involutive", lambda: lam @ lam, lambda: i1),),
                    None if symmetric else "neither commutative nor cocommutative")


def check_cocommutative(d) -> bool:
    """``c . delta == delta`` for anything carrying ``obj`` and ``delta``."""
    return d.obj.braid @ d.delta == d.delta


# -- morphism law helpers -----------------------------------------------------


def coalgebra_morphism_rows(f: LinMap, src, dst):
    """``f`` commutes with the coproducts and the counits of ``src`` and ``dst``."""
    return (
        ("morphism.delta-commutes",
         lambda: dst.delta @ f, lambda: tensor(f, f) @ src.delta),
        ("morphism.eps-commutes", lambda: dst.eps @ f, lambda: src.eps),
    )


def coalgebra_morphism_report(f: LinMap, src, dst) -> CheckReport:
    return CheckReport().laws(coalgebra_morphism_rows(f, src, dst))


def tensor_square(coalg) -> CoalgebraData:
    """The coalgebra ``[n,n]`` with counit ``eps (x) eps`` and coproduct
    ``(id (x) c (x) id) . (delta (x) delta)``; ``obj`` is ``None``."""
    i1 = coalg.obj.id(1)
    delta = tensor(i1, coalg.obj.braid, i1) @ tensor(coalg.delta, coalg.delta)
    return CoalgebraData(None, tensor(coalg.eps, coalg.eps), delta)


def hopf_morphism_report(f: LinMap, src: HopfAlgebraData, dst: HopfAlgebraData) -> CheckReport:
    """Bialgebra-morphism laws plus the (automatic, still checked) antipode square."""
    return CheckReport().laws((
        ("morphism.mu-commutes", lambda: f @ src.mu, lambda: dst.mu @ tensor(f, f)),
        ("morphism.eta-commutes", lambda: f @ src.eta, lambda: dst.eta),
        *coalgebra_morphism_rows(f, src, dst),
        ("morphism.antipode-commutes", lambda: f @ src.antipode, lambda: dst.antipode @ f),
    ))


# -- module algebra / module coalgebra ----------------------------------------
# ``phi: acting (x) carrier -> carrier`` is a left action; the laws that move a
# strand of ``acting`` past the carrier are skipped when no braiding between
# the two objects is known.

_NO_CROSS_BRAIDING = "needs a braiding between target and carrier"


def check_module_algebra(acting, phi: LinMap, alg) -> CheckReport:
    """The (non-unital) action law + the action respecting the carrier's unit
    and product."""
    ic = alg.obj.id(1)
    ix = acting.obj.id(1)
    rep = CheckReport().laws((
        ("module.action-associative",
         lambda: phi @ tensor(ix, phi), lambda: phi @ tensor(acting.mu, ic)),
        ("module-algebra.unit-compat",
         lambda: phi @ tensor(ix, alg.eta), lambda: alg.eta @ acting.eps),
    ))
    cxa = braiding_between(acting.obj, alg.obj)
    return rep.laws(((
        "module-algebra.product-compat",
        lambda: phi @ tensor(ix, alg.mu),
        lambda: (alg.mu @ tensor(ic, phi))
        @ (tensor(phi, ix, ic) @ (tensor(ix, cxa, ic) @ tensor(acting.delta, ic, ic))),
    ),), _NO_CROSS_BRAIDING if cxa is None else None)


def check_module_coalgebra(acting, phi: LinMap, coalg) -> CheckReport:
    """The action is a coalgebra morphism out of ``acting (x) carrier``."""
    ic = coalg.obj.id(1)
    ix = acting.obj.id(1)
    rep = CheckReport().laws((("module-coalgebra.counit-compat", lambda: coalg.eps @ phi,
                               lambda: tensor(acting.eps, coalg.eps)),))
    cxd = braiding_between(acting.obj, coalg.obj)
    return rep.laws(((
        "module-coalgebra.comul-compat",
        lambda: coalg.delta @ phi,
        lambda: tensor(phi, phi) @ (tensor(ix, cxd, ic)
                                    @ tensor(acting.delta, coalg.delta)),
    ),), _NO_CROSS_BRAIDING if cxd is None else None)


def adjoint_action(h: HopfAlgebraData) -> LinMap:
    """Conjugation: ``mu . (mu (x) antipode) . (id (x) c) . (delta (x) id)``."""
    i1 = h.obj.id(1)
    return h.mu @ (tensor(h.mu, h.antipode) @ (tensor(i1, h.obj.braid) @ tensor(h.delta, i1)))


# ---------------------------------------------------------------------------
# convolution calculus
# ---------------------------------------------------------------------------


def _check_convolvable(f: LinMap, g: LinMap, coalg, alg) -> None:
    """Raise :class:`ShapeMismatch` unless ``f``, ``g``, ``delta`` and ``mu``
    share a field and ``mu . (f (x) g) . delta`` is defined, factor-wise."""
    delta, mu = coalg.delta, alg.mu
    if not f.field == g.field == delta.field == mu.field:
        raise ShapeMismatch(f"convolution of maps over {f.field!r}, {g.field!r}, "
                            f"{delta.field!r} and {mu.field!r}")
    if delta.cod != f.dom * g.dom or mu.dom != f.cod * g.cod:
        raise ShapeMismatch(f"cannot convolve {f.dom}->{f.cod} and {g.dom}->{g.cod} "
                            f"through {delta.dom}->{delta.cod} and {mu.dom}->{mu.cod}")


def _by_r(mu: LinMap, n: int, nq: int) -> list:
    """The entries ``(column, row, value)`` of ``mu``, cut by the first index
    ``r < n`` of their column ``(r, q)``, ``q < nq``.  Slices of
    :func:`~hopfkit.linmap._terms`, which lists the entries by column, so no
    entry is visited here and a lazy product is never read whole."""
    terms = _terms(mu)
    cuts = [bisect_left(terms, (r * nq,)) for r in range(n + 1)]
    return [terms[a:b] for a, b in zip(cuts, cuts[1:])]


def _convolve(f: LinMap, g: LinMap, delta: LinMap, cod: TensorShape, by_r) -> LinMap:
    """``f * g``, a map ``delta.dom -> cod``, with the entries of ``mu``
    listed by :func:`_by_r`; see :func:`convolution`."""
    field = f.field
    mul, add, one = field.mul, field.add, field.one
    ndom, nq = g.dom.total, g.cod.total
    fcols, gcols = f.cols, g.cols
    cols = []
    for dcol in delta.cols:
        col = {}
        for ij, d in dcol.items():
            i, j = divmod(ij, ndom)
            gcol = gcols[j]
            for r, v in fcols[i].items():
                # a factor equal to one is copied, not multiplied
                vd = v if d == one else d if v == one else mul(v, d)
                rq = r * nq
                for cm, p, m in by_r[r]:
                    q = cm - rq
                    if q in gcol:
                        w = gcol[q]
                        t = vd if w == one else w if vd == one else mul(vd, w)
                        t = t if m == one else m if t == one else mul(t, m)
                        col[p] = add(col[p], t) if p in col else t
        cols.append({p: x for p, x in col.items() if x})
    return LinMap(field, delta.dom, cod, tuple(cols))


def convolution(f: LinMap, g: LinMap, coalg, alg) -> LinMap:
    """``f * g = mu . (f (x) g) . delta`` for maps from a coalgebra to an algebra.

    Read off the entries in one pass over ``delta``, with no Kronecker
    product built: entries ``d`` of ``delta`` at ``(i, j) -> k``, ``v`` of
    ``f`` at ``(r, i)``, ``w`` of ``g`` at ``(q, j)`` and ``m`` of ``mu`` at
    ``(p, (r, q))`` add ``v*d*w*m`` to entry ``(p, k)``.  The entries of
    ``mu`` are listed once, by their first index ``r``, so a lazy product
    stays lazy; each is matched against the column of ``g`` at ``q``.  The
    same kernel checks :func:`convolution_inverse`.  A field or shape
    mismatch raises :class:`ShapeMismatch` before any work.
    """
    _check_convolvable(f, g, coalg, alg)
    return _convolve(f, g, coalg.delta, alg.mu.cod,
                     _by_r(alg.mu, f.cod.total, g.cod.total))


def convolution_unit(coalg, alg) -> LinMap:
    return alg.eta @ coalg.eps


def convolution_inverse(f: LinMap, coalg, alg) -> LinMap:
    """Two-sided convolution inverse of ``f``, by exact linear solve.

    Solves ``f * x = eta . eps`` entrywise (the equation is linear in x) and
    then checks ``x * f = eta . eps``; raises :class:`NotInvertible` with the
    failing direction otherwise.  A field or shape mismatch, ``f`` not a map
    ``delta.dom -> mu.cod`` among them, raises :class:`ShapeMismatch` before
    any work.

    The system is read off ``f``, ``delta`` and ``mu`` in one pass, with no
    map ``mu . (f (x) id)`` built: entries ``d`` of ``delta`` at
    ``(i, j) -> k``, ``v`` of ``f`` at ``(r, i)`` and ``m`` of ``mu`` at
    ``(p, (r, q))`` add ``v*d*m`` to the coefficient of ``x[q, j]`` (column
    ``q*n_C + j``) in entry ``(p, k)`` of ``f * x`` (row ``p*n_C + k``), and a
    coefficient that cancels is dropped on the spot.  A column is held as
    its one row while its only term is the int one, and as a dict from its
    first other term on: a second term, or a value such as -1, 2 or a
    ``Fraction`` one.  For the curried action no column leaves the row
    form, so ``solve`` reads the system by index arithmetic; ``rref`` gets
    every other system and touches only the rows holding a pivot column.  The entries of ``mu``, listed once by
    their first index, also serve the closing check, the kernel of
    :func:`convolution`.
    """
    _check_convolvable(f, f, coalg, alg)  # the inverse has the shapes of f
    if coalg.delta.dom != f.dom or alg.mu.cod != f.cod:
        raise ShapeMismatch(f"{f.dom}->{f.cod} is not a map {coalg.delta.dom}->{alg.mu.cod}")
    field = f.field
    mul, add, one = field.mul, field.add, field.one
    unit = convolution_unit(coalg, alg)
    ncod = f.cod.total
    ndom = f.dom.total
    by_r = _by_r(alg.mu, ncod, ncod)
    fcols = f.cols
    # column c holds row rows[c] with the value one; -1 is an empty column
    # and -2 one held in ``wide``, as a dict
    rows, wide = [-1] * (ncod * ndom), {}
    for k, dcol in enumerate(coalg.delta.cols):
        for ij, d in dcol.items():
            i, j = divmod(ij, ndom)
            for r, v in fcols[i].items():
                # a factor equal to one is copied, not multiplied
                vd = v if d == one else d if v == one else mul(v, d)
                if not vd:  # a stored zero of f or delta adds nothing
                    continue
                base = j - r * ncod * ndom
                for cm, p, m in by_r[r]:
                    c = cm * ndom + base  # the unknown x[q, j], cm = (r, q)
                    row = p * ndom + k
                    t = vd if m == one else m if vd == one else mul(vd, m)
                    held = rows[c]
                    if held == -1 and t == one and type(t) is int:
                        rows[c] = row
                        continue
                    if held != -2:  # a second term or another value: a dict
                        wide[c] = {} if held == -1 else {held: one}
                        rows[c] = -2
                    col = wide[c]
                    if row in col:
                        t = add(col[row], t)
                        if not t:  # cancelled: dropped now, not in a second pass
                            del col[row]
                            continue
                    col[row] = t
    unknowns = TensorShape((ncod * ndom,))
    if wide:
        cols = _dict_cols(rows, one)
        for c, col in wide.items():
            cols[c] = col
        system = LinMap(field, unknowns, unknowns, tuple(cols))
    else:
        system = LinMap(field, unknowns, unknowns, rows=tuple(rows))
    rhs = {ii * ndom + jj: v for jj, c in enumerate(unit.cols) for ii, v in c.items()}
    x = _solve.solve(system, rhs)
    if x is None:
        raise NotInvertible("no solution of f * x = unit (not convolution invertible)")
    inv_cols = [dict() for _ in range(ndom)]
    for flat, v in x.items():
        inv_cols[flat % ndom][flat // ndom] = v
    inverse = LinMap(field, f.dom, f.cod, tuple(inv_cols))
    if _convolve(inverse, f, coalg.delta, f.cod, by_r) != unit:
        raise NotInvertible("solution of f * x = unit is not a two-sided inverse")
    return inverse


def solve_antipode(b) -> LinMap:
    """Convolution inverse of the identity on a bialgebra; raises :class:`NoAntipode`."""
    try:
        return convolution_inverse(b.obj.id(1), b, b)
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
    prefix = tensor(f, i1) @ tensor(i1, c)
    return prefix @ tensor(c @ coalg.delta, i1) == prefix @ tensor(coalg.delta, i1)


# ---------------------------------------------------------------------------
# currying: the flip gate and the matrix algebra
# ---------------------------------------------------------------------------


def require_flip(obj: BraidedObject, what: str) -> None:
    """Raise :class:`NonSymmetricBraiding` unless ``obj`` has the flip braiding."""
    if not obj.is_flip:
        raise NonSymmetricBraiding(f"{what} needs the flip braiding")


def dual_algebra(dim: int, fld: Field) -> AlgebraData:
    """The algebra of ``dim x dim`` matrices, as a dim^2 object: the product
    ``E_ij E_kl = [j == k] E_il`` is the lazy ``id (x) b (x) id``, with ``b``
    the basis contraction ``e_j (x) e_k -> [j == k]``, and the unit is
    ``sum_i E_ii``.  The target algebra of every curried-action inverse."""
    n2 = dim * dim
    i1 = identity(fld, TensorShape((dim,)))
    b = LinMap(fld, TensorShape((dim, dim)), UNIT_SHAPE,
               rows=tuple([-1 if j % (dim + 1) else 0 for j in range(n2)]))
    mu = tensor(i1, b, i1).reshape(TensorShape((n2, n2)), TensorShape((n2,)))
    eta = LinMap(fld, UNIT_SHAPE, TensorShape((n2,)),
                 ({i * dim + i: fld.one for i in range(dim)},))
    return AlgebraData(BraidedObject(fld, n2), eta, mu)
