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
  A field and a shape are each made once (per characteristic, per tuple of
  factors), so the kernel compares them by identity.

A map is logically a ``cod.total x dom.total`` matrix.  Physically it has one
of two forms, and ``entries()`` materializes the dense view whenever one is
wanted:

* **Monomial form.**  Every structure map of a group algebra (``mu``,
  ``delta``, ``eps``, ``eta``, the antipode, a linearized endomorphism) is a
  0/1 partial map of basis indices, and so are the identity, the flip and
  every Kronecker product or composite of such maps (generalized permutation
  matrices with every entry one; C. F. Van Loan, "The ubiquitous Kronecker
  product", J. Comput. Appl. Math. 123, 2000).  Such a map is held as a
  tuple ``rows`` giving the row of each column's entry, ``-1`` for an empty
  column.
* **Dict columns.**  Any other map is a tuple of sparse column dicts (zero
  entries are not stored): dense matrices of the sizes met here, 4096x4096
  at order 8, would be hopeless in exact arithmetic.  That includes a map
  whose single entries are -1, 2 or a ``Fraction`` one; the last keeps its
  map dict-held so that a witness holds what the map holds.
* **Lazy product.**  ``tensor`` keeps its two factors, in either form; the
  product is monomial when both factors are.

A map is built from ``(column, row, value)`` triples by :func:`from_terms`;
``LinMap(...)`` reads dict columns of one int-one entry at most into
``rows``, a stored zero being no entry.

The kernel works on the monomial form by index arithmetic, with no per-column
object:

* Column ``j`` of a lazy ``f (x) g`` of monomial factors has its entry in
  row ``f.rows[j // ng] * g.cod.total + g.rows[j % ng]``,
  ``ng = g.dom.total``.  The columns of any other product are filled by
  ``_kron_all`` from the entries ``_pair`` lists when they are first read.
* ``compose(g, f)`` of two lazy products whose factors line up
  (``g1.dom == f1.cod`` and ``g2.dom == f2.cod``) follows the mixed-product
  rule ``(g1 (x) g2)(f1 (x) f2) = g1 f1 (x) g2 f2``: the result is the lazy
  product of the two smaller composites, labelled ``f.dom -> g.cod``.  So
  ``(id (x) c (x) id) . (delta (x) id (x) id)`` costs ``n^2``, not ``n^3``.
* Otherwise ``compose`` reads every column of ``f`` and gathers, in one
  batch, only the entries of ``g`` at the rows that ``f`` references.  A
  lazy ``g`` of two stored factors is read in one pass over those rows; a
  deeper product splits them into one list per factor and recurses, so a
  product's row tuple is built only when it is read whole.  A stored ``g``
  after a product ``f1 (x) f2`` of two stored factors
  (``mu @ tensor(mu, id)``) is read block by block: for each row ``a`` of
  ``f1``, the slice of ``g``'s rows at ``a`` is picked at ``f2``'s rows by
  one ``itemgetter`` (or taken whole when ``f2`` is the identity).  A whole
  read of a lazy product fills its rows the same way; a factor with an empty
  column, or an ``f2`` of fewer than two columns, is read entry by entry.
  A law side is therefore written right to left, each ``n^3``-column step
  as a stored map after a product of two stored factors: in
  ``(mu @ tensor(i1, m)) @ (tensor(m, i1, i1) @ (tensor(i1, c, i1) @
  tensor(delta, i1, i1)))`` the right half follows the mixed-product rule
  at ``n^2`` cost and both ``n^3`` steps are block reads.
* Mixed operands: a monomial ``g`` after a dict-held ``f`` is gathered at the
  rows ``f`` holds, and a dict-held ``g`` after a monomial ``f`` hands out the
  columns of ``g`` that ``f`` selects.
* ``first_mismatch`` compares two monomial maps tuple against tuple.  Only
  when they differ does it scan dict columns for the witness.
* ``_terms`` lists the entries of a map as ``(column, row, value)`` triples.
  On a lazy product it pairs the entries of the two factors with ``_pair``,
  the one Kronecker rule for entries, so a product with few entries among
  many columns, such as the dual algebra's ``mu`` (``n^3`` entries in
  ``n^4`` columns), is listed in time proportional to its entries and stays
  lazy.

The ``cols`` of a monomial map are built on first read and kept, for the
readers outside the kernel (the solver, file output, ``entries()``).  A
column dict, once built, is never mutated in place: maps share columns
(``reshape`` shares them all, ``compose`` every column of a dict-held ``g``
that a unit entry of ``f`` selects), and a derived map copies before it
edits.
"""
from __future__ import annotations

from math import prod
from operator import index as as_index, itemgetter

from .errors import ShapeMismatch, _echo
from .fields import Field


_SHAPES = {}  # factors -> their one TensorShape


def _as_index(i, what: str) -> int:
    """``i`` as an ``int``, or :class:`ShapeMismatch` when it is no integer."""
    try:
        return as_index(i)
    except TypeError:
        raise ShapeMismatch(f"{what} {_echo(str(i))} is not an integer") from None


class TensorShape:
    """An ordered tuple of tensor-factor dimensions; ``()`` is the ground field.

    A shape is made once per tuple of factors and returned again after that,
    through copy, deepcopy and pickle too, so ``==`` is ``is``; shapes still
    differ factor by factor (``[6]`` is not ``[2,3]``)."""

    __slots__ = ("factors", "total")

    def __new__(cls, factors=()):
        try:
            fs = tuple(map(as_index, factors))
        except TypeError:
            raise ShapeMismatch(f"shape {_echo(str(factors))} has a non-integer factor") from None
        got = _SHAPES.get(fs)
        if got is None:
            if any(n < 0 for n in fs):
                raise ShapeMismatch(f"negative factor in shape {fs}")
            got = object.__new__(cls)
            got.factors, got.total = fs, prod(fs)
            got = _SHAPES.setdefault(fs, got)
        return got

    def __reduce__(self):
        return (TensorShape, (self.factors,))

    def __repr__(self):
        return f"[{','.join(str(n) for n in self.factors)}]"

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __mul__(self, other: "TensorShape") -> "TensorShape":
        """Concatenation: the shape of a tensor product."""
        fs = self.factors + other.factors
        got = _SHAPES.get(fs)
        return TensorShape(fs) if got is None else got

    def index(self, coords) -> int:
        """Flat index of a multi-index, leftmost factor most significant."""
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ShapeMismatch(f"multi-index {coords} does not fit shape {self}")
        flat = 0
        for c, n in zip(coords, self.factors):
            c = _as_index(c, "coordinate")
            if not 0 <= c < n:
                raise ShapeMismatch(f"coordinate {c} out of range for factor {n}")
            flat = flat * n + c
        return flat

    def coords(self, flat: int):
        """Inverse of :meth:`index`."""
        flat = _as_index(flat, "flat index")
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

    __slots__ = ("field", "dom", "cod", "_cols", "rows", "factors", "monomial")

    def __init__(self, field: Field, dom: TensorShape, cod: TensorShape, cols=None,
                 rows=None, factors=None):
        self.field = field
        self.dom = dom
        self.cod = cod
        # the form (see the module docstring).  The factors' shapes need not
        # concatenate to ``dom`` and ``cod``: ``reshape`` keeps the factors
        if factors is not None:
            self.monomial = factors[0].monomial and factors[1].monomial
        else:
            if rows is None:
                rows = _monomial(cols, field.one)
            self.monomial = rows is not None
        self._cols = cols
        self.rows = rows
        self.factors = factors

    @property
    def cols(self):
        """The columns, a tuple of ``{row: nonzero scalar}`` dicts.

        A column is never mutated in place, so maps share them (``compose``
        hands out the columns of a dict-held ``g`` that it reads).  A lazy
        product or a monomial map builds them on first read and keeps them;
        the kernel reads them only for a product that is not monomial, where
        a monomial map meets a dict-held one in ``compose`` or
        ``first_mismatch``, and for the witness of a mismatch."""
        if self._cols is None:
            self._cols = (tuple(_dict_cols(_gather(self), self.field.one)) if self.monomial
                          else _kron_all(*self.factors))
        return self._cols

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_cols(field, dom, cod, cols) -> "LinMap":
        """Build from per-column {row: value} dicts of Python values: the one
        loop that coerces each value and checks each row; zeros are dropped."""
        dom, cod = TensorShape(dom), TensorShape(cod)
        if len(cols) != dom.total:
            raise ShapeMismatch(f"{len(cols)} columns for domain of total {dom.total}")
        terms = []
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not 0 <= (i := _as_index(i, "row")) < cod.total:
                    raise ShapeMismatch(f"row {i} out of range for codomain total {cod.total}")
                terms.append((j, i, field.coerce(v)))
        return from_terms(field, dom, cod, terms)

    @staticmethod
    def from_entries(field, dom, cod, rows) -> "LinMap":
        """Build from a dense row-major matrix (list of rows): its shape is
        checked here, its values by :meth:`from_cols`."""
        dom, cod = TensorShape(dom), TensorShape(cod)
        rows = [list(r) for r in rows]
        if len(rows) != cod.total or any(len(r) != dom.total for r in rows):
            raise ShapeMismatch(
                f"need a {cod.total}x{dom.total} matrix for {dom}->{cod}"
            )
        return LinMap.from_cols(field, dom, cod,
                                [{i: r[j] for i, r in enumerate(rows)} for j in range(dom.total)])

    # -- views ---------------------------------------------------------------

    def entry(self, i: int, j: int):
        """The entry in row ``i``, column ``j``; :class:`ShapeMismatch` outside the map."""
        i, j = self._check_entry(i, j)
        return self.cols[j].get(i, self.field.zero)

    def _check_entry(self, i, j):
        i, j = _as_index(i, "row"), _as_index(j, "column")
        if not (0 <= i < self.cod.total and 0 <= j < self.dom.total):
            raise ShapeMismatch(f"entry ({i}, {j}) out of range for {self.dom}->{self.cod}")
        return i, j

    def entries(self):
        """Dense row-major matrix of entries (a list of lists)."""
        zero = self.field.zero
        rows = [[zero] * self.dom.total for _ in range(self.cod.total)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

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
        dom, cod = TensorShape(dom), TensorShape(cod)
        if dom.total != self.dom.total or cod.total != self.cod.total:
            raise ShapeMismatch(
                f"reshape {self.dom}->{self.cod} to {dom}->{cod} changes totals"
            )
        return LinMap(self.field, dom, cod, self._cols, self.rows, self.factors)

    def with_entry(self, i: int, j: int, value) -> "LinMap":
        """Copy of the map with entry (i, j) replaced (handy for mutation tests)."""
        i, j = self._check_entry(i, j)
        terms = [t for t in _terms(self) if t[0] != j or t[1] != i]
        terms.append((j, i, self.field.coerce(value)))
        return from_terms(self.field, self.dom, self.cod, terms)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        return compose(self, other)


# -- the monomial form ------------------------------------------------------------


def _monomial(cols, one):
    """The rows of dict columns that hold at most one entry each, that entry
    the int one; ``None`` at the first column that does not.  A stored zero
    is no entry."""
    rows = []
    for col in cols:
        if len(col) > 1:
            return None
        (i, v), = col.items() or ((-1, 0),)
        if v and (v != one or type(v) is not int):
            return None
        rows.append(i if v else -1)
    return tuple(rows)


def from_terms(field: Field, dom: TensorShape, cod: TensorShape, terms) -> LinMap:
    """The map of the ``(column, row, value)`` triples ``terms``, in any
    order and trusted to lie in the map: values at one position are summed,
    and a zero term or a sum that cancels is dropped on the spot.  A column
    keeps the row form while its only term is the int one; a map with any
    dict column is handed to ``LinMap(...)``, whose :func:`_monomial` rules."""
    one, add = field.one, field.add
    # column c holds row rows[c] with the value one; -1 is an empty column
    # and -2 one held in ``wide``, as a dict
    rows, wide = [-1] * dom.total, {}
    for c, r, v in terms:
        held = rows[c]
        if held == -1 and v == one and type(v) is int:
            rows[c] = r
            continue
        if not v:
            continue
        if held != -2:
            wide[c] = {} if held == -1 else {held: one}
            rows[c] = -2
        col = wide[c]
        if r in col:
            v = add(col[r], v)
            if not v:
                del col[r]
                continue
        col[r] = v
    if not wide:
        return LinMap(field, dom, cod, rows=tuple(rows))
    cols = _dict_cols(rows, one)
    for c, col in wide.items():
        cols[c] = col
    return LinMap(field, dom, cod, tuple(cols))


def _gather(m: LinMap, idx=None) -> tuple:
    """The rows of the monomial map ``m`` at the columns ``idx``, or at every
    column for ``None``, as a tuple; column ``-1`` reads as empty.  A stored
    map is read at ``idx`` by one ``itemgetter``.

    A lazy product gathers from its factors, at the column of each that a
    column of the product reads."""
    if m.factors is None:
        if idx is None:
            return m.rows
        pick = itemgetter(*idx) if len(idx) > 1 else lambda t: tuple([t[k] for k in idx])
        return pick(m.rows + (-1,))
    # column j of the product reads column j // ng of f and j % ng of g
    f, g = m.factors
    ng, ncg = g.dom.total, g.cod.total
    if idx is None:  # kept, as ``cols`` keeps the columns it builds
        m.rows, m.factors = _blocks(_gather(f), _gather(g), ncg), None
        return m.rows
    ng = ng or 1  # a product with no column reads only column -1
    if f.factors is None and g.factors is None:
        # two stored factors: each column is read in one pass, not split into
        # an index list per factor
        fr, gr = f.rows + (-1,), g.rows + (-1,)
        return tuple([a * ncg + b if (a := fr[k // ng]) >= 0 and (b := gr[k % ng]) >= 0
                      else -1 for k in idx])
    fr = _gather(f, [k // ng for k in idx])
    gr = _gather(g, [k % ng for k in idx])
    return tuple([a * ncg + b if a >= 0 and b >= 0 else -1 for a, b in zip(fr, gr)])


def _blocks(fr, gr, width, rows=None) -> tuple:
    """The rows ``a * width + b`` of a product, or ``rows`` read at them, for
    each ``a`` of ``fr`` and, within it, each ``b`` of ``gr``; ``-1`` where
    ``a`` or ``b`` is ``-1``.

    One block per ``a``: the ``width`` rows from ``a * width`` on, picked at
    ``gr`` by one ``itemgetter`` (or taken whole when ``gr`` is the
    identity's).  An empty column, or a ``gr`` of fewer than two, is read
    entry by entry."""
    if len(gr) < 2 or -1 in fr or -1 in gr:
        fr = [a * width for a in fr]
        if rows is None:
            return tuple([a + b if a >= 0 and b >= 0 else -1 for a in fr for b in gr])
        rows += (-1,)
        return tuple([rows[a + b if a >= 0 and b >= 0 else -1] for a in fr for b in gr])
    pick = None if len(gr) == width and gr == tuple(range(width)) else itemgetter(*gr)
    out = []
    extend = out.extend
    for a in fr:
        a *= width
        block = range(a, a + width) if rows is None else rows[a:a + width]
        extend(block if pick is None else pick(block))
    return tuple(out)


def _terms(m: LinMap, by_column=True) -> list:
    """The entries of ``m`` as ``(column, row, value)`` triples, by column
    unless ``by_column`` is false.

    A lazy product pairs the entries of its two factors: it visits no empty
    column and stays lazy.  A dict-held map, or a product whose columns are
    built, lists its nonzero entries."""
    if m.factors is not None and m._cols is None:
        out = _pair(*m.factors)
        if by_column and not m.monomial:
            # stable: each column's entries keep the eager product's order
            out.sort(key=itemgetter(0))
        return out
    if m.rows is not None:
        one = m.field.one
        return [(c, r, one) for c, r in enumerate(m.rows) if r >= 0]
    return [(c, r, v) for c, col in enumerate(m.cols) for r, v in col.items() if v]


def _pair(f: LinMap, g: LinMap) -> list:
    """The entries of ``f (x) g`` as ``(column, row, value)`` triples: each
    entry of ``f`` with each entry of ``g``, so no empty column is visited.
    They come by column when no column of either factor holds two entries."""
    ng, ncg = g.dom.total, g.cod.total
    one, mul = f.field.one, f.field.mul
    fterms, gterms = _terms(f, False), _terms(g, False)
    if f.monomial and g.monomial:
        return [(cf * ng + cg, rf * ncg + rg, one)
                for cf, rf, _ in fterms for cg, rg, _ in gterms]
    # a factor equal to one is copied, not multiplied: structure maps hold
    # mostly ones, and ``== one`` on an int costs far less than ``mul``
    return [(cf * ng + cg, rf * ncg + rg, b if a == one else a if b == one else mul(a, b))
            for cf, rf, a in fterms for cg, rg, b in gterms]


def _dict_cols(rows, one) -> list:
    """The dict columns of a monomial form: ``{row: one}``, or empty."""
    return [{i: one} if i >= 0 else {} for i in rows]


# -- the four structural operations ------------------------------------------


def identity(field: Field, shp) -> LinMap:
    shp = TensorShape(shp)
    return LinMap(field, shp, shp, rows=tuple(range(shp.total)))


def zero_map(field: Field, dom, cod) -> LinMap:
    dom, cod = TensorShape(dom), TensorShape(cod)
    return LinMap(field, dom, cod, rows=(-1,) * dom.total)


def compose(g: LinMap, f: LinMap) -> LinMap:
    """The composite ``g after f`` (matrix product g.f)."""
    if g.field != f.field:
        raise ShapeMismatch(f"composing maps over {f.field!r} and {g.field!r}")
    if f.cod != g.dom:
        raise ShapeMismatch(f"cannot compose: {f.dom}->{f.cod} then {g.dom}->{g.cod}")
    field = g.field
    if (g.factors is not None and f.factors is not None
            and g.factors[0].dom == f.factors[0].cod and g.factors[1].dom == f.factors[1].cod):
        # the mixed-product rule: (g1 (x) g2)(f1 (x) f2) = g1 f1 (x) g2 f2
        (g1, g2), (f1, f2) = g.factors, f.factors
        return LinMap(field, f.dom, g.cod, factors=(compose(g1, f1), compose(g2, f2)))
    if (f.factors is not None and g.rows is not None
            and all(h.rows is not None for h in f.factors)):
        # a stored g after a product of two stored factors: column j of g.f
        # is column (row j of the product) of g, read one block of g's rows
        # per row of the first factor
        f1, f2 = f.factors
        return LinMap(field, f.dom, g.cod,
                      rows=_blocks(f1.rows, f2.rows, f2.cod.total, g.rows))
    mul, add, one = field.mul, field.add, field.one
    if f.monomial:
        fr = _gather(f)
        if g.monomial:
            # index arithmetic: column j of g.f is column fr[j] of g
            return LinMap(field, f.dom, g.cod, rows=_gather(g, fr))
        gcols = g.cols + ({},)  # column -1 of f selects no column of g
        return LinMap(field, f.dom, g.cod, tuple([gcols[k] for k in fr]))
    fcols = f.cols
    if g.monomial:
        # only the columns of g that f reads, gathered in one batch
        ks = list({k for fcol in fcols for k in fcol})
        gcols = dict(zip(ks, _dict_cols(_gather(g, ks), one)))
    else:
        gcols = g.cols
    out = []
    for fcol in fcols:
        if len(fcol) == 1:
            # a single scalar times a column of g, shared when the scalar is one
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
    return LinMap(field, f.dom, g.cod, tuple(out))


def tensor(*maps: LinMap) -> LinMap:
    """Tensor (Kronecker) product, leftmost factor most significant.

    The product is lazy: it keeps its factors, nested to the left (see the
    module docstring)."""
    if not maps:
        raise ShapeMismatch("tensor() of no maps")
    out = maps[0]
    for m in maps[1:]:
        if out.field != m.field:
            raise ShapeMismatch(f"tensor of maps over {out.field!r} and {m.field!r}")
        out = LinMap(out.field, out.dom * m.dom, out.cod * m.cod, factors=(out, m))
    return out


def _kron_all(f: LinMap, g: LinMap) -> tuple:
    """Every column of ``f (x) g``, in order, filled from :func:`_pair`."""
    cols = [{} for _ in range(f.dom.total * g.dom.total)]
    for c, r, v in _pair(f, g):
        cols[c][r] = v
    return tuple(cols)


def flip(field: Field, m: int, n: int) -> LinMap:
    """The permutation ``[m,n] -> [n,m]`` sending ``e_i (x) e_j`` to ``e_j (x) e_i``."""
    rows = tuple([j * m + i for i in range(m) for j in range(n)])
    return LinMap(field, TensorShape((m, n)), TensorShape((n, m)), rows=rows)


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
    if f.monomial and g.monomial and _gather(f) == _gather(g):
        return None
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
