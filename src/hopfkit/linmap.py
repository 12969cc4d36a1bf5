"""Exact linear maps between tensor powers of finite-dimensional spaces.

Everything downstream is a composite of these maps, so the two contracts that
matter live here:

* **Basis ordering.**  The basis of ``V1 (x) V2 (x) ... (x) Vk`` is ordered
  lexicographically with the *leftmost* factor most significant: the basis
  vector ``e_{i1} (x) e_{i2} (x) ... (x) e_{ik}`` has flat index
  ``((i1 * n2 + i2) * n3 + ...)``.  The empty shape ``[]`` is the ground
  field, with total dimension 1.

* **Exactness.**  Entries are exact scalars of one :class:`~hopfkit.fields.Field`;
  no operation rounds.  Equality is entrywise and exact, and shapes compare
  factor-wise (``[6]`` differs from ``[2,3]`` even though the totals agree).

A map is logically a ``cod.total x dom.total`` matrix.  Physically the columns
are a sequence of sparse dicts (zero entries are never stored): the structure
maps of the algebras handled here are permutation-like, and composing dense
4096x4096 permutation matrices in exact arithmetic would be hopeless, while
their sparse composites cost next to nothing.  ``entries()`` materializes the
dense view whenever one is wanted.

A column dict, once built, is never mutated in place: maps share columns
(``reshape`` shares them all, ``compose`` every column of ``g`` that a
single-entry unit column of ``f`` selects), and a derived map copies before
it edits.  ``first_mismatch`` compares two columns whole before it scans
their entries, so equal columns cost one dict comparison.

**Lazy Kronecker products.**  ``tensor`` builds no column up front.  Column
``j`` of ``f (x) g`` is built on its first indexed read, from column
``j // g.dom.total`` of ``f`` and column ``j % g.dom.total`` of ``g``, and
kept; iterating a product none of whose columns has been read builds them all
in one loop.  ``compose(g, f)`` reads every column of ``f``.  When ``f`` has
fewer columns than ``g`` it reads only the columns of ``g`` that ``f``
references, otherwise all of ``g`` in that one loop.  So a law side is written
right to left: ``mu @ (tensor(mu, mu) @ (tensor(i1, c, i1) @ tensor(delta, delta)))``
builds only the columns of ``tensor(i1, c, i1)`` that the domain reaches,
where the left-associated ``mu @ tensor(mu, mu) @ ...`` builds every column
of each product.
"""
from __future__ import annotations

from .errors import ShapeMismatch
from .fields import Field


class TensorShape:
    """An ordered tuple of tensor-factor dimensions; ``()`` is the ground field."""

    __slots__ = ("factors", "total")

    def __init__(self, factors=()):
        fs = tuple(int(n) for n in factors)
        if any(n < 0 for n in fs):
            raise ShapeMismatch(f"negative factor in shape {fs}")
        self.factors = fs
        total = 1
        for n in fs:
            total *= n
        self.total = total

    def __eq__(self, other):
        return isinstance(other, TensorShape) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"[{','.join(str(n) for n in self.factors)}]"

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __mul__(self, other: "TensorShape") -> "TensorShape":
        """Concatenation: the shape of a tensor product."""
        return TensorShape(self.factors + other.factors)

    def index(self, coords) -> int:
        """Flat index of a multi-index, leftmost factor most significant."""
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ShapeMismatch(f"multi-index {coords} does not fit shape {self}")
        flat = 0
        for c, n in zip(coords, self.factors):
            if not 0 <= c < n:
                raise ShapeMismatch(f"coordinate {c} out of range for factor {n}")
            flat = flat * n + c
        return flat

    def coords(self, flat: int):
        """Inverse of :meth:`index`."""
        if not 0 <= flat < self.total:
            raise ShapeMismatch(f"flat index {flat} out of range for shape {self}")
        out = []
        for n in reversed(self.factors):
            out.append(flat % n)
            flat //= n
        return tuple(reversed(out))


def shape(*factors) -> TensorShape:
    return TensorShape(factors)


UNIT_SHAPE = TensorShape(())


class LinMap:
    """An exact linear map ``dom -> cod`` between tensor powers."""

    __slots__ = ("field", "dom", "cod", "cols")

    def __init__(self, field: Field, dom: TensorShape, cod: TensorShape, cols):
        self.field = field
        self.dom = dom
        self.cod = cod
        # a sequence of {row: nonzero scalar}, one dict per column, never
        # mutated in place, so maps share them (compose hands out the columns
        # it reads); a Kronecker product builds each on first read, so a law
        # side is written right to left (see the module docstring)
        self.cols = cols

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_cols(field, dom, cod, cols) -> "LinMap":
        """Build from per-column {row: value} dicts; values are coerced, zeros dropped."""
        dom, cod = _as_shape(dom), _as_shape(cod)
        if len(cols) != dom.total:
            raise ShapeMismatch(f"{len(cols)} columns for domain of total {dom.total}")
        clean = []
        for col in cols:
            d = {}
            for i, v in col.items():
                if not 0 <= i < cod.total:
                    raise ShapeMismatch(f"row {i} out of range for codomain total {cod.total}")
                v = field.coerce(v)
                if v:
                    d[i] = v
            clean.append(d)
        return LinMap(field, dom, cod, tuple(clean))

    @staticmethod
    def from_entries(field, dom, cod, rows) -> "LinMap":
        """Build from a dense row-major matrix (list of rows)."""
        dom, cod = _as_shape(dom), _as_shape(cod)
        rows = [list(r) for r in rows]
        if len(rows) != cod.total or any(len(r) != dom.total for r in rows):
            raise ShapeMismatch(
                f"need a {cod.total}x{dom.total} matrix for {dom}->{cod}"
            )
        cols = [dict() for _ in range(dom.total)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = field.coerce(v)
                if v:
                    cols[j][i] = v
        return LinMap(field, dom, cod, tuple(cols))

    # -- views ---------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.cols[j].get(i, self.field.zero)

    def entries(self):
        """Dense row-major matrix of entries (a list of lists)."""
        zero = self.field.zero
        rows = [[zero] * self.dom.total for _ in range(self.cod.total)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def __repr__(self):
        return f"LinMap({self.field!r}, {self.dom!r}->{self.cod!r})"

    # -- equality --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return first_mismatch(self, other) is None

    __hash__ = None  # mutable-free but compared by value; not hashable

    # -- derived maps ------------------------------------------------------------

    def reshape(self, dom, cod) -> "LinMap":
        """Reinterpret the tensor factors without touching entries.

        Totals must be preserved; this is the strictness isomorphism
        ``[m*n] = [m,n]`` made explicit.
        """
        dom, cod = _as_shape(dom), _as_shape(cod)
        if dom.total != self.dom.total or cod.total != self.cod.total:
            raise ShapeMismatch(
                f"reshape {self.dom}->{self.cod} to {dom}->{cod} changes totals"
            )
        return LinMap(self.field, dom, cod, self.cols)

    def with_entry(self, i: int, j: int, value) -> "LinMap":
        """Copy of the map with entry (i, j) replaced (handy for mutation tests)."""
        v = self.field.coerce(value)
        cols = list(self.cols)
        col = dict(cols[j])
        if v:
            col[i] = v
        else:
            col.pop(i, None)
        cols[j] = col
        return LinMap(self.field, self.dom, self.cod, tuple(cols))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return compose(self, other)


def _as_shape(s) -> TensorShape:
    if isinstance(s, TensorShape):
        return s
    return TensorShape(s)


# -- the four structural operations ------------------------------------------


def identity(field: Field, shp) -> LinMap:
    shp = _as_shape(shp)
    one = field.one
    return LinMap(field, shp, shp, tuple({j: one} for j in range(shp.total)))


def zero_map(field: Field, dom, cod) -> LinMap:
    dom, cod = _as_shape(dom), _as_shape(cod)
    return LinMap(field, dom, cod, tuple({} for _ in range(dom.total)))


def compose(g: LinMap, f: LinMap) -> LinMap:
    """The composite ``g after f`` (matrix product g.f)."""
    if g.field != f.field:
        raise ShapeMismatch(f"composing maps over {f.field!r} and {g.field!r}")
    if f.cod != g.dom:
        raise ShapeMismatch(f"cannot compose: {f.dom}->{f.cod} then {g.dom}->{g.cod}")
    mul = g.field.mul
    add = g.field.add
    one = g.field.one
    gcols = g.cols
    if len(f.cols) >= len(gcols):
        # as many columns as g has, as when f is a permutation: a lazy g is
        # read whole, which its one-loop build does faster than column by column
        gcols = tuple(gcols)
    out = []
    for fcol in f.cols:
        if len(fcol) == 1:
            # permutation-like fast path: a single scalar times a column of g
            (k, v), = fcol.items()
            if v == one:
                out.append(gcols[k])
            else:
                out.append({i: mul(w, v) for i, w in gcols[k].items()})
            continue
        acc = {}
        for k, v in fcol.items():
            for i, w in gcols[k].items():
                t = mul(w, v)
                if i in acc:
                    acc[i] = add(acc[i], t)
                else:
                    acc[i] = t
        out.append({i: v for i, v in acc.items() if v})
    return LinMap(g.field, f.dom, g.cod, tuple(out))


def tensor(*maps: LinMap) -> LinMap:
    """Tensor (Kronecker) product, leftmost factor most significant.

    The columns are built on first read (see the module docstring)."""
    if not maps:
        raise ShapeMismatch("tensor() of no maps")
    out = maps[0]
    for m in maps[1:]:
        if out.field != m.field:
            raise ShapeMismatch(f"tensor of maps over {out.field!r} and {m.field!r}")
        out = LinMap(out.field, out.dom * m.dom, out.cod * m.cod, _KronCols(out, m))
    return out


class _KronCols:
    """The columns of ``f (x) g``, each built on first read and kept.

    Once every column is built they are held as one tuple and the references
    to ``f`` and ``g`` are dropped.
    """

    __slots__ = ("f", "g", "n", "built", "cols")

    def __init__(self, f: LinMap, g: LinMap):
        self.f, self.g = f, g
        self.n = f.dom.total * g.dom.total
        self.built = {}    # column index -> column, before all are built
        self.cols = None   # tuple of every column, once all are built

    def __len__(self):
        return self.n

    def __getitem__(self, j):
        if self.cols is not None:
            return self.cols[j]
        col = self.built.get(j)
        if col is None:
            j = range(self.n)[j]  # a negative index counts from the end
            f, g = self.f, self.g
            ng = g.dom.total
            col = _kron_col(f.cols[j // ng], g.cols[j % ng], g.cod.total,
                            f.field.one, f.field.mul)
            self.built[j] = col
            if len(self.built) == self.n:
                self._finish(tuple(self.built[k] for k in range(self.n)))
        return col

    def __iter__(self):
        if self.cols is None:
            if self.built:
                for j in range(self.n):
                    self[j]
            else:
                self._finish(_kron_all(self.f, self.g))
        return iter(self.cols)

    def _finish(self, cols) -> None:
        self.cols = cols
        self.f = self.g = self.built = None


def _kron_col(fcol, gcol, ncg, one, mul) -> dict:
    """The Kronecker column ``fcol (x) gcol``."""
    # a factor equal to one is copied, not multiplied: structure maps hold
    # mostly ones, and ``== one`` on an int costs far less than ``mul``
    col = {}
    for i_f, vf in fcol.items():
        base = i_f * ncg
        if vf == one:
            for i_g, vg in gcol.items():
                col[base + i_g] = vg
        else:
            for i_g, vg in gcol.items():
                col[base + i_g] = vf if vg == one else mul(vf, vg)
    return col


def _kron_all(f: LinMap, g: LinMap) -> tuple:
    """Every column of ``f (x) g``, in order."""
    one, mul = f.field.one, f.field.mul
    ncg = g.cod.total
    gcols = tuple(g.cols)
    return tuple([_kron_col(fcol, gcol, ncg, one, mul)
                  for fcol in f.cols for gcol in gcols])


def flip(field: Field, m: int, n: int) -> LinMap:
    """The permutation ``[m,n] -> [n,m]`` sending ``e_i (x) e_j`` to ``e_j (x) e_i``."""
    one = field.one
    cols = [None] * (m * n)
    for i in range(m):
        for j in range(n):
            cols[i * n + j] = {j * m + i: one}
    return LinMap(field, TensorShape((m, n)), TensorShape((n, m)), tuple(cols))


# -- comparison with witness ----------------------------------------------------


def first_mismatch(f: LinMap, g: LinMap):
    """``None`` if the maps are equal; otherwise a witness.

    The witness is ``("field", f.field, g.field)`` or
    ``("shape", (dom_f, cod_f), (dom_g, cod_g))`` for structural mismatches,
    and ``(row, col, lhs, rhs)`` for the first differing entry in row-major
    order.
    """
    if f.field != g.field:
        return ("field", f.field, g.field)
    if f.dom != g.dom or f.cod != g.cod:
        return ("shape", (f.dom, f.cod), (g.dom, g.cod))
    zero = f.field.zero
    worst = None
    for j, (cf, cg) in enumerate(zip(f.cols, g.cols)):
        if cf == cg:
            continue
        for i in cf.keys() | cg.keys():
            a = cf.get(i, zero)
            b = cg.get(i, zero)
            if a != b and (worst is None or (i, j) < worst[:2]):
                worst = (i, j, a, b)
    return worst
