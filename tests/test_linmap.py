"""The linear-map layer against hand-computed Kronecker/flip oracles."""
import copy
import gc
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit import linmap
from hopfkit.errors import ShapeMismatch
from hopfkit.factories import group_algebra
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, symmetric3
from hopfkit.linmap import (
    LinMap,
    TensorShape,
    UNIT_SHAPE,
    compose,
    first_mismatch,
    flip,
    identity,
    shape,
    tensor,
    zero_map,
)
from hopfkit.solve import invert, solve

from helpers import rank_of
from test_structures import _assert_same_system


def M(rows, dom=None, cod=None, fld=QQ):
    """Dense rows -> LinMap, shapes defaulting to plain vector spaces."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    dom = TensorShape((nc,)) if dom is None else dom
    cod = TensorShape((nr,)) if cod is None else cod
    return LinMap.from_entries(fld, dom, cod, rows)


def test_tensor_shape_indexing():
    s = shape(2, 3)
    assert s.total == 6
    # leftmost factor most significant
    assert [s.index((i, j)) for i in range(2) for j in range(3)] == list(range(6))
    assert s.coords(5) == (1, 2)


def test_one_shape_object_per_tuple_of_factors():
    a, b = shape(2, 3), shape(4)
    assert TensorShape([2, 3]) is a and TensorShape(()) is UNIT_SHAPE
    assert a * b is TensorShape(a.factors + b.factors) is shape(2, 3, 4)
    # the unit shape has length 0: a product with it is still found
    assert a * UNIT_SHAPE is a and UNIT_SHAPE * UNIT_SHAPE is UNIT_SHAPE
    assert shape(6) != a and shape(6).total == a.total
    for s in (a, UNIT_SHAPE):
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s


def test_shape_factors_must_be_nonnegative_integers():
    for bad in ([2.7, 3], [2.0, 3], ["2", 3], "23", [-1, 2]):
        with pytest.raises(ShapeMismatch):
            TensorShape(bad)


def test_identical_totals_or_fields_are_not_enough():
    # [6] and [2,3] are different shapes, Q and GF(5) different fields:
    # each kernel operation still refuses them, and ``first_mismatch`` names
    # the first difference
    f5 = Field.prime(5)
    six, two_three = identity(QQ, shape(6)), identity(QQ, shape(2, 3))
    with pytest.raises(ShapeMismatch):
        six @ two_three
    assert first_mismatch(six, two_three) == (
        "shape", (shape(6), shape(6)), (shape(2, 3), shape(2, 3)))
    q, g = identity(QQ, shape(2)), identity(f5, shape(2))
    for op in (compose, tensor):
        with pytest.raises(ShapeMismatch):
            op(q, g)
    assert first_mismatch(q, g) == ("field", QQ, f5)


def test_compose_is_matrix_product():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b).entries() == [[2, 1], [4, 3]]
    assert (b @ a).entries() == [[3, 4], [1, 2]]


def test_compose_shape_mismatch():
    a = M([[1, 2], [3, 4]])
    c = M([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ShapeMismatch):
        c @ a  # dom of c is 3-dim, cod of a is 2-dim... mismatch
    a @ c


def test_tensor_is_kronecker():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 5], [6, 7]])
    k = tensor(a, b)
    assert k.dom == shape(2, 2) and k.cod == shape(2, 2)
    assert k.entries() == [
        [0, 5, 0, 10],
        [6, 7, 12, 14],
        [0, 15, 0, 20],
        [18, 21, 24, 28],
    ]


def test_tensor_with_unit_shape_is_scaling():
    # a column vector is a map from the empty tensor product
    col = LinMap.from_entries(QQ, UNIT_SHAPE, shape(2), [[2], [3]])
    row = LinMap.from_entries(QQ, shape(2), UNIT_SHAPE, [[5, 7]])
    assert (row @ col).entries() == [[31]]
    outer = tensor(col, row)
    assert outer.dom == shape(2) and outer.cod == shape(2)


def test_flip_swaps_factors():
    c = flip(QQ, 2, 3)
    s, t = shape(2, 3), shape(3, 2)
    assert c.dom == s and c.cod == t
    for i in range(2):
        for j in range(3):
            col = s.index((i, j))
            assert c.cols[col] == {t.index((j, i)): QQ.one}


def test_flip_inverse_is_reverse_flip():
    c = flip(QQ, 2, 3)
    cinv = flip(QQ, 3, 2)
    assert (cinv @ c).entries() == identity(QQ, shape(2, 3)).entries()


def test_reshape_preserves_entries():
    a = M([[1, 2, 3, 4]], dom=shape(2, 2), cod=shape(1))
    b = a.reshape(shape(4), shape(1))
    assert b.entries() == [[1, 2, 3, 4]]
    with pytest.raises(ShapeMismatch):
        a.reshape(shape(3), shape(1))


def test_entry_and_with_entry():
    a = M([[1, 2], [3, 4]])
    assert a.entry(1, 0) == 3
    b = a.with_entry(1, 0, Fraction(9))
    assert b.entry(1, 0) == 9 and a.entry(1, 0) == 3
    assert b.with_entry(1, 0, Fraction(0)).entry(1, 0) == 0


def test_zero_and_identity():
    z = zero_map(QQ, shape(2), shape(3))
    assert sum(map(len, z.cols)) == 0
    i = identity(QQ, shape(3))
    assert i.entries() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_field_mismatch_rejected():
    a = M([[1]])
    b = M([[1]], fld=Field.prime(5))
    with pytest.raises(ShapeMismatch):
        a @ b


small = st.integers(-4, 4)


def mat(n, m):
    return st.lists(st.lists(small, min_size=m, max_size=m),
                    min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(mat(2, 2), mat(2, 2), mat(2, 2), mat(2, 2))
def test_tensor_interchange_law(a, b, f, g):
    # (a.f) (x) (b.g) = (a (x) b) . (f (x) g)
    A, B, F, G = M(a), M(b), M(f), M(g)
    assert tensor(A @ F, B @ G) == tensor(A, B) @ tensor(F, G)


@settings(max_examples=60, deadline=None)
@given(mat(2, 3), mat(3, 2))
def test_compose_entries_against_python_sum(a, b):
    A, B = M(a), M(b)
    got = (A @ B).entries()
    for i in range(2):
        for j in range(2):
            assert got[i][j] == sum(a[i][k] * b[k][j] for k in range(3))


@settings(max_examples=40, deadline=None)
@given(mat(2, 2))
def test_flip_conjugation_naturality(a):
    # c . (f (x) g) = (g (x) f) . c for the flip
    A = M(a)
    B = M([[2, 1], [0, 1]])
    c = flip(QQ, 2, 2)
    assert c @ tensor(A, B) == tensor(B, A) @ c


# mostly zeros and ones, as in structure maps, with a few non-integers
kernel_scalar = st.sampled_from(
    [0, 0, 0, 1, 1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def kernel_mat(n, m):
    return st.lists(st.lists(kernel_scalar, min_size=m, max_size=m),
                    min_size=n, max_size=n)


def _both_forms(rows):
    """The map of ``rows`` twice: as ``from_entries`` stores it (integral
    entries as ``int``) and with every entry an explicit ``Fraction``."""
    a = M(rows)
    b = LinMap(QQ, a.dom, a.cod,
               tuple({i: Fraction(v) for i, v in c.items()} for c in a.cols))
    return a, b


def _printed(m):
    return [{i: str(v) for i, v in c.items()} for c in m.cols]


def _printed_witness(w):
    return None if w is None else [str(x) for x in w]


@settings(max_examples=80, deadline=None)
@given(kernel_mat(2, 3), kernel_mat(3, 2), kernel_mat(2, 3))
def test_kernel_agrees_on_int_and_fraction_entries(a, b, c):
    # the same map held with int or with Fraction entries gives the same
    # tensor products, composites and witnesses, entry for printed entry
    forms = [_both_forms(x) for x in (a, b, c)]
    a0, b0, c0 = (f[0] for f in forms)
    tensored = _printed(tensor(a0, b0, c0))
    composed = _printed(a0 @ b0)
    witness = _printed_witness(first_mismatch(a0, c0))
    for fa, fb, fc in itertools.product(*forms):
        assert _printed(tensor(fa, fb, fc)) == tensored
        assert _printed(fa @ fb) == composed
        assert _printed_witness(first_mismatch(fa, fc)) == witness


# -- the lazy Kronecker product against the eager one ----------------------------


def _tensor2_eager(f, g):
    """The Kronecker product with every column built up front: the kernel the
    lazy ``tensor`` replaced, kept as its reference."""
    mul = f.field.mul
    one = f.field.one
    ncg = g.cod.total
    cols = []
    for fcol in f.cols:
        fitems = [(i_f * ncg, vf, vf == one) for i_f, vf in fcol.items()]
        for gcol in g.cols:
            col = {}
            for base, vf, vf_is_one in fitems:
                if vf_is_one:
                    for i_g, vg in gcol.items():
                        col[base + i_g] = vg
                else:
                    for i_g, vg in gcol.items():
                        col[base + i_g] = vf if vg == one else mul(vf, vg)
            cols.append(col)
    return LinMap(f.field, f.dom * g.dom, f.cod * g.cod, tuple(cols))


def _tensor_eager(*maps):
    out = maps[0]
    for m in maps[1:]:
        out = _tensor2_eager(out, m)
    return out


GF5 = Field.prime(5)
# zeros make empty columns; the other values are not one, so the products
# take the multiplying branch of the kernel as well as the copying one
LAZY_SCALARS = {
    QQ: st.sampled_from([0, 0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
    GF5: st.sampled_from([0, 0, 0, 1, 1, 2, 3, 4]),
}


@st.composite
def _factor(draw, fld):
    nr, nc = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    row = st.lists(LAZY_SCALARS[fld], min_size=nc, max_size=nc)
    return M(draw(st.lists(row, min_size=nr, max_size=nr)),
             dom=shape(nc), cod=shape(nr), fld=fld)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lazy_tensor_agrees_with_the_eager_reference(data):
    # however its columns are read, a lazy product holds the eager product's
    # entries and gives the same witness against a mutated copy
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    maps = data.draw(st.lists(_factor(fld), min_size=2, max_size=3), label="maps")
    ref = _tensor_eager(*maps)
    n = ref.dom.total
    mutant = ref
    if n and ref.cod.total:
        i = data.draw(st.integers(0, ref.cod.total - 1), label="row")
        j = data.draw(st.integers(0, n - 1), label="col")
        mutant = ref.with_entry(i, j, fld.add(ref.entry(i, j), fld.one))
    lazy = tensor(*maps)
    mode = data.draw(st.sampled_from(("index", "iterate", "partial")), label="mode")
    order = data.draw(st.permutations(range(n)), label="order")
    if mode == "partial":
        order = order[:data.draw(st.integers(0, n), label="read")]
    if mode != "iterate":
        for k, j in enumerate(order):
            # every other read counts from the end
            assert lazy.cols[j - n if k % 2 else j] == ref.cols[j]
    assert len(lazy.cols) == n
    assert (_printed_witness(first_mismatch(lazy, mutant))
            == _printed_witness(first_mismatch(ref, mutant)))
    assert _printed(lazy) == _printed(ref)
    assert first_mismatch(mutant, lazy) == first_mismatch(mutant, ref)
    # compose reads a lazy left operand column by column, or whole when the
    # right operand has at least as many columns
    width = data.draw(st.sampled_from((1, n, n + 1)), label="width")
    row = st.lists(LAZY_SCALARS[fld], min_size=width, max_size=width)
    f = M(data.draw(st.lists(row, min_size=n, max_size=n), label="f"),
          dom=shape(width), cod=ref.dom, fld=fld)
    assert _printed(tensor(*maps) @ f) == _printed(ref @ f)


def test_lazy_tensor_rejects_an_index_out_of_range():
    k = tensor(M([[1, 2]]), M([[3], [4]]))
    with pytest.raises(IndexError):
        k.cols[2]
    with pytest.raises(IndexError):
        k.cols[-3]
    assert k.cols[-1] == k.cols[1] == {0: 6, 1: 8}


@pytest.mark.parametrize("read", ["iterate", "index"])
def test_tensor_read_in_full_drops_its_operands(read):
    a, b = M([[1, 2], [3, 4]]), M([[0, 5], [6, 7]])
    k = tensor(a, b, a)
    if read == "iterate":
        list(k.cols)
    else:
        for j in reversed(range(len(k.cols))):
            k.cols[j]
    kept = gc.get_referents(k.cols)
    assert not any(x is a or x is b for x in kept)
    assert not any(isinstance(x, LinMap) for x in kept)
    assert k == _tensor_eager(a, b, a)


def test_repr_of_an_unread_product_builds_no_column(monkeypatch):
    built = []
    build = linmap._kron_all

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(linmap, "_kron_all", counted)
    i1 = identity(QQ, shape(4))
    k = tensor(i1, flip(QQ, 4, 4), i1)
    assert repr(k) == "LinMap(Q, [4,4,4,4]->[4,4,4,4])"
    assert built == []


# -- columns shared, never mutated ---------------------------------------------


def _unit_perm(fld, rows, cod):
    """The map ``[len(rows)] -> cod`` whose column ``j`` is ``e_{rows[j]}``."""
    return LinMap(fld, shape(len(rows)), cod, tuple({k: fld.one} for k in rows))


@pytest.mark.parametrize("rows", [(2, 0, 3, 1), (3, 1)], ids=["square", "narrow"])
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_compose_with_a_unit_permutation_shares_columns(lazy, rows):
    # a unit-scalar column of P hands out the column of g it selects, itself:
    # a lazy g is read whole under a square P and by index under a narrow one
    a, b = M([[1, 2], [0, 3]]), M([[0, 5], [6, 7]])
    g = tensor(a, b) if lazy else _tensor_eager(a, b)
    h = g @ _unit_perm(QQ, rows, g.dom)
    for j, k in enumerate(rows):
        assert h.cols[j] is g.cols[k]


def _cols_of(*maps):
    return [copy.deepcopy(list(m.cols)) for m in maps]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_operations_mutate_no_input_column(data):
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    row = st.lists(LAZY_SCALARS[fld], min_size=n, max_size=n)
    a = M(data.draw(st.lists(row, min_size=n, max_size=n), label="a"), fld=fld)
    b = M(data.draw(st.lists(row, min_size=n, max_size=n), label="b"), fld=fld)
    p = _unit_perm(fld, data.draw(st.permutations(range(n)), label="perm"), shape(n))
    # composites with p share the columns of a, b and p
    inputs = [a, b, p, a @ p, p @ a, b @ p, a @ b]
    copies = _cols_of(*inputs)
    ap, pa, bp, ab = inputs[3:]
    lazy = tensor(ap, p)
    lazy_ref = _tensor_eager(ap, p)

    # compose, with eager and lazy operands on either side
    (ap @ p) @ pa
    p @ ap @ bp
    tensor(ap, bp) @ tensor(p, p)
    tensor(pa, b) @ _unit_perm(fld, [0], shape(n, n))
    lazy @ tensor(p, ab)
    # tensor read by index, then iterated, and iterated unread
    t = tensor(ap, bp, p)
    for j in data.draw(st.lists(st.integers(0, n ** 3 - 1), max_size=5), label="reads"):
        t.cols[j]
    list(t.cols)
    list(tensor(pa, ab).cols)
    # comparison, reshaping and edits
    first_mismatch(ap, bp)
    first_mismatch(tensor(ap, p), lazy_ref)
    first_mismatch(lazy, tensor(p, ap))
    r = ap.reshape(shape(n), shape(n))
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    r.with_entry(i, j, data.draw(LAZY_SCALARS[fld], label="value"))
    ap.with_entry(i, j, fld.zero)
    # the solver layer
    invert(ap)
    invert(p)
    invert(tensor(p, bp))
    solve(ap, {i: fld.one})
    solve(tensor(p, ab), {0: fld.one})
    rank_of(pa)
    rank_of(tensor(ab, p))

    assert _cols_of(*inputs) == copies
    assert list(lazy.cols) == list(lazy_ref.cols)


# -- first_mismatch against the entry scan ---------------------------------------


def _first_mismatch_scan(f, g):
    """``first_mismatch`` as it was before it compared equal columns whole:
    every column's entries are scanned.  Kept as its reference."""
    if f.field != g.field:
        return ("field", f.field, g.field)
    if f.dom != g.dom or f.cod != g.cod:
        return ("shape", (f.dom, f.cod), (g.dom, g.cod))
    zero = f.field.zero
    worst = None
    for j, (cf, cg) in enumerate(zip(f.cols, g.cols)):
        for i in cf.keys() | cg.keys():
            a = cf.get(i, zero)
            b = cg.get(i, zero)
            if a != b and (worst is None or (i, j) < worst[:2]):
                worst = (i, j, a, b)
    return worst


def _held_witness(w):
    """A witness with the type of every scalar in it."""
    return None if w is None else [(type(x).__name__, str(x)) for x in w]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_mismatch_agrees_with_the_entry_scan(data):
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    a, b = data.draw(_factor(fld), label="a"), data.draw(_factor(fld), label="b")
    ref = _tensor_eager(a, b)
    nr, nc = ref.cod.total, ref.dom.total
    # edits store any scalar, a zero too, straight into copied columns, so
    # the edited map may equal the reference, hold a stored zero, or differ
    # in several columns
    edits = []
    if nr and nc:
        edit = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1),
                         LAZY_SCALARS[fld])
        edits = data.draw(st.lists(edit, max_size=4), label="edits")
    as_fraction = fld is QQ and data.draw(st.booleans(), label="fraction")

    def edited():
        cols = [dict(c) for c in ref.cols]
        for i, j, v in edits:
            cols[j][i] = v
        if as_fraction:
            cols = [{i: Fraction(v) for i, v in c.items()} for c in cols]
        return LinMap(fld, ref.dom, ref.cod, tuple(cols))

    lhs_lazy = data.draw(st.booleans(), label="lhs lazy")
    rhs_lazy = not edits and not as_fraction and data.draw(st.booleans(), label="rhs lazy")
    swap = data.draw(st.booleans(), label="swap")

    def pair():
        # fresh operands each time, so a lazy one is unread when compared
        f = tensor(a, b) if lhs_lazy else _tensor_eager(a, b)
        g = tensor(a, b) if rhs_lazy else edited()
        return (g, f) if swap else (f, g)

    got = first_mismatch(*pair())
    want = _first_mismatch_scan(*pair())
    assert got == want
    assert _held_witness(got) == _held_witness(want)


# -- the monomial form against the dict path -------------------------------------


@st.composite
def _mono_cols(draw, fld, nr, nc):
    """Raw columns of one stored entry at most: empty, a stored zero, or a
    value, int-held or Fraction-held."""
    cols = [{draw(st.integers(0, nr - 1)): draw(LAZY_SCALARS[fld])}
            if nr and draw(st.booleans()) else {} for _ in range(nc)]
    if fld is QQ and draw(st.booleans()):
        cols = [{i: Fraction(v) for i, v in c.items()} for c in cols]
    return cols


@st.composite
def _unit_or_mono_cols(draw, fld, nr, nc):
    """Raw columns of one entry at most: unit entries only, the form of a
    structure map, or any of :func:`_mono_cols`."""
    if draw(st.booleans()):
        return [{draw(st.integers(0, nr - 1)): 1} if nr and draw(st.booleans()) else {}
                for _ in range(nc)]
    return draw(_mono_cols(fld, nr, nc))


def _unit_cols(cols) -> bool:
    """Whether raw columns make a monomial map: no column holds two entries
    or a nonzero value other than the int one."""
    return all(len(c) <= 1 and all(not v or (type(v) is int and v == 1) for v in c.values())
               for c in cols)


def _forms(fld, nr, nc, cols):
    """The map of ``cols`` twice: as built, monomial exactly when
    :func:`_unit_cols`, and dict-held through two stored zeros in column 0
    (so ``nr >= 2`` and ``nc >= 1``)."""
    dom, cod = shape(nc), shape(nr)
    mono = LinMap(fld, dom, cod, tuple(cols))
    held = LinMap(fld, dom, cod, ({0: 0, 1: 0, **cols[0]},) + tuple(cols[1:]))
    assert mono.monomial == _unit_cols(cols) and not held.monomial
    return mono, held


@st.composite
def _held_map(draw, fld, nr, nc):
    """A dict-held map ``[nc] -> [nr]`` whose columns hold up to three raw
    entries, stored zeros among them; column 0 holds two at least, so that
    the map is not monomial (``nr >= 2`` and ``nc >= 1``)."""
    cols = [{r: draw(LAZY_SCALARS[fld])
             for r in draw(st.lists(st.integers(0, nr - 1), min_size=2 if j == 0 else 0,
                                    max_size=3, unique=True))}
            for j in range(nc)]
    if fld is QQ and draw(st.booleans()):
        cols = [{i: Fraction(v) for i, v in c.items()} for c in cols]
    m = LinMap(fld, shape(nc), shape(nr), tuple(cols))
    assert not m.monomial
    return m


def _product(g, f):
    """``g . f`` from the dense entries, through the field."""
    fld = g.field
    a, b = g.entries(), f.entries()
    rows = [[fld.zero] * f.dom.total for _ in range(g.cod.total)]
    for i, j, k in itertools.product(range(g.cod.total), range(f.dom.total),
                                     range(f.cod.total)):
        rows[i][j] = fld.add(rows[i][j], fld.mul(a[i][k], b[k][j]))
    return LinMap.from_entries(fld, f.dom, g.cod, rows)


def _bumped(data, m):
    """``m`` with one entry changed, as raw dict columns."""
    fld = m.field
    i = data.draw(st.integers(0, m.cod.total - 1), label="bump row")
    j = data.draw(st.integers(0, m.dom.total - 1), label="bump col")
    cols = [dict(c) for c in m.cols]
    cols[j][i] = fld.add(m.entry(i, j), fld.one)
    return LinMap(fld, m.dom, m.cod, tuple(cols))


def _nonzero(cols):
    """Columns without their stored zeros, each value with its type."""
    return [{i: (type(v).__name__, str(v)) for i, v in c.items() if v} for c in cols]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_compose_agrees_with_the_dict_path(data):
    # g . f with each operand monomial or dict-held: the four paths of compose
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    a, b, c = (data.draw(st.integers(2, 3), label=x) for x in ("a", "b", "c"))
    fs = _forms(fld, b, a, data.draw(_unit_or_mono_cols(fld, b, a), label="f"))
    gs = _forms(fld, c, b, data.draw(_unit_or_mono_cols(fld, c, b), label="g"))
    ref = _product(gs[0], fs[0])
    mutant = _bumped(data, ref)
    for g, f in itertools.product(gs, fs):
        got = g @ f
        assert got.monomial or not (g.monomial and f.monomial)
        assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None
        assert first_mismatch(got, mutant) == _first_mismatch_scan(ref, mutant)
        assert first_mismatch(mutant, got) == _first_mismatch_scan(mutant, ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_tensor_agrees_with_the_eager_reference(data):
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    maps = []
    for k in range(data.draw(st.integers(2, 3), label="factors")):
        # two columns at least, so that a dict-held map can follow the product
        nr, nc = data.draw(st.integers(2, 3), label="rows"), data.draw(st.integers(1 if k else 2, 3), label="cols")
        # monomial, dict-held by stored zeros only, or dict-held with columns
        # of several entries
        form = data.draw(st.integers(0, 2), label=f"form {k}")
        if form < 2:
            forms = _forms(fld, nr, nc,
                           data.draw(_unit_or_mono_cols(fld, nr, nc), label=f"factor {k}"))
            maps.append(forms[form])
        else:
            maps.append(data.draw(_held_map(fld, nr, nc), label=f"factor {k}"))
    ref = _tensor_eager(*maps)
    lazy = tensor(*maps)
    assert lazy.factors is not None or not all(m.monomial for m in maps)
    n = ref.dom.total
    if lazy.monomial:
        # read by index: some columns, in any order, repeated, -1 as empty
        idx = data.draw(st.lists(st.integers(-1, n - 1), max_size=2 * n), label="read")
        got = linmap._dict_cols(linmap._gather(lazy, idx), fld.one)
        assert _nonzero(got) == _nonzero([ref.cols[k] if k >= 0 else {} for k in idx])
    # a narrow or wide map after the product reads it partly or whole
    width = data.draw(st.integers(1, n + 1), label="width")
    for f in _forms(fld, n, width, data.draw(_mono_cols(fld, n, width), label="f")):
        f = f.reshape(f.dom, ref.dom)
        assert first_mismatch(tensor(*maps) @ f, _product(ref, f)) is None
    mutant = _bumped(data, ref)
    assert first_mismatch(tensor(*maps), mutant) == _first_mismatch_scan(ref, mutant)
    assert first_mismatch(mutant, tensor(*maps)) == _first_mismatch_scan(mutant, ref)
    assert _nonzero(lazy.cols) == _nonzero(ref.cols)


# -- composites of two products against the eager reference -----------------------


@st.composite
def _stored(draw, fld, dom, cod):
    """A map built from :func:`_unit_or_mono_cols`: stored monomial, or
    dict-held where a value other than the int one was drawn."""
    cols = draw(_unit_or_mono_cols(fld, cod.total, dom.total))
    m = LinMap(fld, dom, cod, tuple(cols))
    assert (m.rows is not None) == _unit_cols(cols)
    return m


# the factor shapes of f = f1 (x) f2 and g = g1 (x) g2 for g . f, as
# (f1.cod, f2.cod, g1.dom, g2.dom, middle): a "reshaped" product is relabelled
# to the middle shape [a*b], which its factors' shapes do not concatenate to
PRODUCT_LAYOUTS = {
    "aligned": lambda a, b, c: ((a,), (b,), (a,), (b,), None),
    "misaligned": lambda a, b, c: ((a,), (b, c), (a, b), (c,), None),
    "reshaped": lambda a, b, c: ((a,), (b,), (a,), (b,), (a * b,)),
    "reshaped-misaligned": lambda a, b, c: ((a,), (b,), (b,), (a,), (a * b,)),
}


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_composite_of_two_products_agrees_with_the_eager_reference(data):
    # tensor(g1, g2) @ tensor(f1, f2), whatever the compose rule that applies,
    # holds the entries of the eager composite, labelled f.dom -> g.cod, and
    # gives its witness against a mutated copy; so does a stored or dict-held
    # map after the product f
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    layout = data.draw(st.sampled_from(sorted(PRODUCT_LAYOUTS)), label="layout")
    dims = data.draw(st.lists(st.integers(1, 3), min_size=7, max_size=7), label="dims")
    zero = data.draw(st.sampled_from((None, None, None, *range(7))), label="zero-size")
    if zero is not None:
        dims[zero] = 0
    p, q, r, s, a, b, c = dims
    f1cod, f2cod, g1dom, g2dom, middle = PRODUCT_LAYOUTS[layout](a, b, c)
    f1 = data.draw(_stored(fld, shape(p), shape(*f1cod)), label="f1")
    f2 = data.draw(_stored(fld, shape(q), shape(*f2cod)), label="f2")
    g1 = data.draw(_stored(fld, shape(*g1dom), shape(r)), label="g1")
    g2 = data.draw(_stored(fld, shape(*g2dom), shape(s)), label="g2")

    def relabel(m, dom, cod):
        return m if middle is None else m.reshape(dom, cod)

    def operands():
        # fresh each time: comparing a lazy composite reads it whole
        return (relabel(tensor(g1, g2), shape(*middle or ()), shape(r * s)),
                relabel(tensor(f1, f2), shape(p * q), shape(*middle or ())))

    ref_g = relabel(_tensor_eager(g1, g2), shape(*middle or ()), shape(r * s))
    ref_f = relabel(_tensor_eager(f1, f2), shape(p * q), shape(*middle or ()))
    ref = _product(ref_g, ref_f)
    g, f = operands()
    # g read by index: some columns, in any order, repeated, -1 as empty
    n = ref_g.dom.total
    idx = data.draw(st.lists(st.integers(-1, n - 1), max_size=2 * n), label="read")
    if g.monomial:
        read = linmap._dict_cols(linmap._gather(g, idx), fld.one)
        assert _nonzero(read) == _nonzero([ref_g.cols[k] if k >= 0 else {} for k in idx])
    got = g @ f
    assert (got.dom, got.cod) == (f.dom, g.cod)
    if layout in ("aligned", "reshaped") and all(h.monomial for h in (f1, f2, g1, g2)):
        assert got.factors is not None
    assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None
    if ref.dom.total and ref.cod.total:
        mutant = _bumped(data, ref)
        assert first_mismatch(compose(*operands()), mutant) == _first_mismatch_scan(ref, mutant)
        assert first_mismatch(mutant, compose(*operands())) == _first_mismatch_scan(mutant, ref)
    if f.cod.total:
        nr = data.draw(st.integers(2, 3), label="h rows")
        cols = data.draw(_unit_or_mono_cols(fld, nr, f.cod.total), label="h")
        for h in _forms(fld, nr, f.cod.total, cols):
            h = h.reshape(f.cod, h.cod)
            assert first_mismatch(h @ operands()[1], _product(h, ref_f)) is None


def test_aligned_compose_stays_a_lazy_product():
    # the mixed-product rule keeps a product lazy, labelled f.dom -> g.cod; a
    # factor holding a 2 is dict-held, and so is its lazy product
    i2 = identity(QQ, shape(2))
    g = tensor(flip(QQ, 2, 3), i2)
    for a in (M([[0, 2], [1, 0]]), M([[0, 1], [1, 0]])):
        f = tensor(flip(QQ, 3, 2), a)
        got = g @ f
        assert got.factors is not None and got.monomial == a.monomial
        assert (got.dom, got.cod) == (f.dom, g.cod) == (shape(3, 2, 2), shape(3, 2, 2))
        ref = _product(_tensor_eager(flip(QQ, 2, 3), i2), _tensor_eager(flip(QQ, 3, 2), a))
        assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None
    # dual_algebra's mu keeps the factors of id (x) b (x) id under its
    # [n^2, n^2] -> [n^2] label: composed with a product relabelled to match,
    # its factors line up with the product's
    from hopfkit.structures import dual_algebra

    for n in (2, 3):
        mu = dual_algebra(n, QQ).mu
        i1 = identity(QQ, shape(n))
        sq = shape(n * n, n * n)
        f = tensor(i1, flip(QQ, n, n), i1).reshape(sq, sq)
        got = mu @ f
        assert got.factors is not None
        assert (got.dom, got.cod) == (sq, shape(n * n))
        ref = _product(dual_algebra(n, QQ).mu,
                       _tensor_eager(i1, flip(QQ, n, n), i1).reshape(sq, sq))
        assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None


# -- block reads of a product of two stored factors ------------------------------


@st.composite
def _block_factor(draw, fld, nc, nr):
    """A stored map ``[nc] -> [nr]``: the identity (when ``nc == nr``), unit
    entries in every column, unit entries with empty columns, or any of
    :func:`_mono_cols`."""
    kind = draw(st.sampled_from(("identity", "full", "unit", "any")))
    if kind == "identity" and nc == nr:
        return identity(fld, shape(nc))
    if kind == "any":
        cols = draw(_mono_cols(fld, nr, nc))
    else:
        low = 0 if kind == "full" else -1
        rows = draw(st.lists(st.integers(low, nr - 1), min_size=nc, max_size=nc)) if nr else [-1] * nc
        cols = [{r: 1} if r >= 0 else {} for r in rows]
    m = LinMap(fld, shape(nc), shape(nr), tuple(cols))
    assert (m.rows is not None) == _unit_cols(cols)
    return m


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_reads_agree_with_the_eager_reference(data):
    # a stored g after a product of two stored factors, and a whole read of
    # the product, read one block per row of the left factor: empty columns
    # in either factor, a right factor of 0, 1 or more columns or the
    # identity, and a factor or g holding other values (dict-held, the
    # general path) all give the eager composite's entries and witnesses
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    p, a, r = (data.draw(st.integers(0, 3), label=x) for x in ("p", "a", "r"))
    q = data.draw(st.sampled_from((0, 1, 2, 3)), label="q")
    b = data.draw(st.sampled_from((q, 1, 2, 3)), label="b")
    f1 = data.draw(_block_factor(fld, p, a), label="f1")
    f2 = data.draw(_block_factor(fld, q, b), label="f2")
    g = data.draw(_block_factor(fld, a * b, r), label="g").reshape(shape(a, b), shape(r))
    ref_f = _tensor_eager(f1, f2)
    assert _nonzero(tensor(f1, f2).cols) == _nonzero(ref_f.cols)
    ref = _product(g, ref_f)
    got = g @ tensor(f1, f2)
    assert (got.dom, got.cod) == (ref.dom, ref.cod)
    assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None
    if ref.dom.total and ref.cod.total:
        mutant = _bumped(data, ref)
        assert first_mismatch(g @ tensor(f1, f2), mutant) == _first_mismatch_scan(ref, mutant)
        assert first_mismatch(mutant, g @ tensor(f1, f2)) == _first_mismatch_scan(mutant, ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_first_mismatch_agrees_with_the_entry_scan(data):
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    nr, nc = data.draw(st.integers(2, 3), label="rows"), data.draw(st.integers(1, 4), label="cols")
    xcols = data.draw(_unit_or_mono_cols(fld, nr, nc), label="x")
    # y is x with a few columns replaced, so equal maps and first differences
    # anywhere both occur; it may hold its values as Fractions where x does not
    ycols = list(xcols)
    for j in data.draw(st.lists(st.integers(0, nc - 1), max_size=2), label="edits"):
        ycols[j] = data.draw(_mono_cols(fld, nr, 1), label="column")[0]
    if fld is QQ and data.draw(st.booleans(), label="fraction"):
        ycols = [{i: Fraction(v) for i, v in c.items()} for c in ycols]
    for f, g in itertools.product(_forms(fld, nr, nc, xcols), _forms(fld, nr, nc, ycols)):
        for lhs, rhs in ((f, g), (g, f)):
            got, want = first_mismatch(lhs, rhs), _first_mismatch_scan(lhs, rhs)
            assert got == want and _held_witness(got) == _held_witness(want)


def test_cols_of_an_eager_map_is_a_tuple_of_dicts():
    from hopfkit.structures import solve_antipode

    g = symmetric3()
    antipode = solve_antipode(group_algebra(g, QQ))
    i2 = identity(QQ, shape(2))
    cases = [
        (identity(QQ, shape(3)), ({0: 1}, {1: 1}, {2: 1})),
        (flip(QQ, 2, 3), ({0: 1}, {2: 1}, {4: 1}, {1: 1}, {3: 1}, {5: 1})),
        (zero_map(QQ, shape(2), shape(3)), ({}, {})),
        (M([[1, 2], [0, 3]]), ({0: 1}, {0: 2, 1: 3})),
        (M([[0, 2], [0, 0]]), ({}, {0: 2})),
        (tensor(i2, M([[0, 2], [0, 0]])), ({}, {0: 2}, {}, {2: 2})),
        (antipode, tuple({g.inverse[j]: 1} for j in range(g.order))),
    ]
    for m, want in cases:
        assert type(m.cols) is tuple and m.cols == want
        assert all(type(c) is dict for c in m.cols)


def test_with_entry_on_a_monomial_map_copies():
    # the raw map holds a 2, so it is dict-held; the other two are monomial
    raw = ({1: 1}, {0: Fraction(2)}, {})
    for m, monomial in ((identity(QQ, shape(3)), True),
                        (LinMap(QQ, shape(3), shape(3), raw), False),
                        (tensor(identity(QQ, shape(1)), flip(QQ, 1, 3)), True)):
        before = copy.deepcopy(m.cols)
        form = (m.rows, m.factors)
        for i, j, v in ((0, 1, 7), (2, 2, 0), (1, 0, 0)):
            e = m.with_entry(i, j, v)
            assert e.entry(i, j) == v
            assert e.cols[j] is not m.cols[j]
            assert m.cols == before and (m.rows, m.factors) == form
            assert m.monomial == monomial


@pytest.mark.parametrize("i, j, value", [(5, 0, 1), (-1, 0, 7), (0, -1, 5), (0, 7, 1)],
                         ids=["row-past-the-end", "negative-row", "negative-column",
                              "column-past-the-end"])
def test_with_entry_refuses_an_index_outside_the_map(i, j, value):
    # unchecked, row 5 is stored (and entries() raises IndexError), row -1 is
    # stored as a key, column -1 edits the last column, column 7 raises a bare
    # IndexError
    for m in (identity(QQ, shape(2)), M([[1, 1], [0, 1]])):
        with pytest.raises(ShapeMismatch):
            m.with_entry(i, j, value)


@pytest.mark.parametrize("i, j", [(1, -1), (5, 0), (-1, 0), (0, 7)],
                         ids=["negative-column", "row-past-the-end", "negative-row",
                              "column-past-the-end"])
def test_entry_refuses_an_index_outside_the_map(i, j):
    # unchecked, column -1 reads the last column (1 at (1, -1)), rows 5 and -1
    # read as 0, and column 7 raises a bare IndexError
    for m in (identity(QQ, shape(2)), M([[1, 1], [0, 1]])):
        with pytest.raises(ShapeMismatch) as info:
            m.entry(i, j)
        assert str(info.value) == f"entry ({i}, {j}) out of range for [2]->[2]"
        with pytest.raises(ShapeMismatch, match=re.escape(str(info.value))):
            m.with_entry(i, j, 1)


def test_a_stored_zero_is_no_entry_of_the_monomial_form():
    # with a 2 the map is dict-held, with a 1 monomial: either way the
    # stored zeros are no entries
    for v in (2, 1):
        m = LinMap(QQ, shape(3), shape(2), ({1: 0}, {0: Fraction(0)}, {1: v}))
        assert m.monomial == (v == 1)
        if m.monomial:
            assert m.rows == (-1, -1, 1)
        assert m == zero_map(QQ, shape(3), shape(2)).with_entry(1, 2, v)
        assert first_mismatch(m, zero_map(QQ, shape(3), shape(2))) == (1, 2, v, 0)


def test_a_whole_read_of_a_lazy_product_is_kept(monkeypatch):
    # a scaled factor is dict-held, and so is its lazy product
    scaled = LinMap.from_entries(QQ, shape(2), shape(2), [[0, 2], [3, 0]])
    maps = (identity(QQ, shape(2)), scaled, flip(QQ, 2, 1))
    p = tensor(*maps)
    assert not p.monomial and p == _tensor_eager(*maps)
    swap = LinMap.from_entries(QQ, shape(2), shape(2), [[0, 1], [1, 0]])
    maps = (identity(QQ, shape(2)), swap, flip(QQ, 2, 1))
    p = tensor(*maps)
    gather, read = linmap._gather, []
    monkeypatch.setattr(linmap, "_gather",
                        lambda m, idx=None: read.append(m) or gather(m, idx))
    first = linmap._gather(p)
    assert len(read) > 1  # the first whole read recurses into the factors
    read.clear()
    assert linmap._gather(p) == first
    assert len(read) == 1 and read[0] is p and p.factors is None
    assert p.monomial and p == _tensor_eager(*maps)


def _held_terms(terms):
    return [(c, r, type(v).__name__, str(v)) for c, r, v in terms]


def _assert_terms_agree(fld, maps, right_nested):
    # the reference is nested as the lazy product is: the kernel's copy of a
    # one is exact in value, not in type, and each nesting multiplies its
    # scalars in its own order, so 2 (x) (1/2 (x) 1) holds Fraction(1) where
    # (2 (x) 1/2) (x) 1 holds int 1
    if right_nested:
        lazy = tensor(maps[0], tensor(*maps[1:]))
        eager = _tensor_eager(maps[0], _tensor_eager(*maps[1:]))
    else:
        lazy = tensor(*maps)
        eager = _tensor_eager(*maps)
    got = linmap._terms(lazy)
    if all(m.monomial for m in maps):
        assert lazy.monomial and (lazy.factors is not None or len(maps) == 1)
        want = [(c, r, fld.one) for c, r in enumerate(linmap._gather(lazy)) if r >= 0]
    else:
        want = [(c, r, v) for c, col in enumerate(eager.cols)
                for r, v in col.items() if v]
    assert _held_terms(got) == _held_terms(want)
    # a dict-held map lists its nonzero entries, column by column
    if lazy.dom.total and lazy.cod.total >= 2:
        held = _forms(fld, lazy.cod.total, lazy.dom.total, list(lazy.cols))[1]
        assert _held_terms(linmap._terms(held)) == _held_terms(want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_terms_agree_with_a_whole_gather(data):
    # nested lazy products of factors with empty columns, stored zeros, unit
    # entries, no column at all, or the identity; a factor holding another
    # value, as an int or a Fraction, is dict-held, and so is its product,
    # whose terms are the eager product's
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    maps = []
    for k in range(data.draw(st.integers(1, 3), label="factors")):
        nr, nc = data.draw(st.integers(1, 3), label="rows"), data.draw(st.integers(0, 3), label="cols")
        kind = data.draw(st.sampled_from(["raw", "identity", "empty", "unit"]), label=f"kind {k}")
        if kind == "identity":
            maps.append(identity(fld, shape(nr)))
        elif kind == "empty":
            maps.append(LinMap(fld, shape(0), shape(nr), ()))
        else:
            cols = _unit_or_mono_cols if kind == "unit" else _mono_cols
            maps.append(LinMap(fld, shape(nc), shape(nr),
                               tuple(data.draw(cols(fld, nr, nc), label=f"factor {k}"))))
    right_nested = len(maps) == 3 and data.draw(st.booleans(), label="right-nested")
    _assert_terms_agree(fld, maps, right_nested)


@pytest.mark.parametrize("right_nested", [False, True])
def test_terms_of_a_product_whose_scalars_multiply_to_one(right_nested):
    # 2 (x) 1/2 (x) 1: an integral Fraction one in one nesting, an int one in
    # the other, and equal terms against the reference of the same nesting
    maps = [LinMap(QQ, shape(1), shape(1), ({0: v},)) for v in (2, Fraction(1, 2), 1)]
    _assert_terms_agree(QQ, maps, right_nested)


# -- the boundary of the monomial form ---------------------------------------------


# single entries on either side of the form: the int one is monomial; -1, 2,
# GF(5)'s 4 and a Fraction one keep their map dict-held
BOUNDARY_SCALARS = {QQ: [1, 1, -1, 2, Fraction(1)], GF5: [1, 1, 4, 2]}


@st.composite
def _boundary_cols(draw, fld, nr, nc, full=False):
    """Raw columns of one entry at most, drawn from ``BOUNDARY_SCALARS``;
    every column holds one when ``full``."""
    return [{draw(st.integers(0, nr - 1)): draw(st.sampled_from(BOUNDARY_SCALARS[fld]))}
            if full or draw(st.booleans()) else {} for _ in range(nc)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_entries_other_than_the_int_one_are_dict_held(data):
    # maps of single entries are monomial exactly when each entry is the int
    # one; in either form, and with a dict-held twin through stored zeros,
    # compose, tensor, first_mismatch and solve give the eager references'
    # entries and witnesses
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    a, b, c = (data.draw(st.integers(2, 3), label=x) for x in "abc")
    fcols = data.draw(_boundary_cols(fld, b, a), label="f")
    gcols = data.draw(_boundary_cols(fld, c, b), label="g")
    fs, gs = _forms(fld, b, a, fcols), _forms(fld, c, b, gcols)  # asserts the form
    ref = _product(gs[0], fs[0])
    mutant = _bumped(data, ref)
    for g, f in itertools.product(gs, fs):
        got = g @ f
        assert got.monomial or not (g.monomial and f.monomial)
        assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None
        assert first_mismatch(got, mutant) == _first_mismatch_scan(ref, mutant)
        assert first_mismatch(mutant, got) == _first_mismatch_scan(mutant, ref)
        ref_t = _tensor_eager(g, f)
        assert tensor(g, f).monomial or not (g.monomial and f.monomial)
        assert _nonzero(tensor(g, f).cols) == _nonzero(ref_t.cols)
        bumped = _bumped(data, ref_t)
        for lhs, rhs, want in ((tensor(g, f), bumped, (ref_t, bumped)),
                               (bumped, tensor(g, f), (bumped, ref_t))):
            got_w, want_w = first_mismatch(lhs, rhs), _first_mismatch_scan(*want)
            assert got_w == want_w and _held_witness(got_w) == _held_witness(want_w)
    # f against a copy with a few columns drawn again
    ycols = list(fcols)
    for j in data.draw(st.lists(st.integers(0, a - 1), max_size=2), label="edits"):
        ycols[j] = data.draw(_boundary_cols(fld, b, 1), label="column")[0]
    for x, y in itertools.product(fs, _forms(fld, b, a, ycols)):
        for lhs, rhs in ((x, y), (y, x)):
            got_w, want_w = first_mismatch(lhs, rhs), _first_mismatch_scan(lhs, rhs)
            assert got_w == want_w and _held_witness(got_w) == _held_witness(want_w)
    # solve against the rref of the dict-held twin, value types included
    rhs = data.draw(st.dictionaries(st.integers(0, b - 1),
                                    st.sampled_from(BOUNDARY_SCALARS[fld] + [0])), label="rhs")
    got, want = (solve(m, rhs) for m in fs)
    assert (got is None) == (want is None)
    if got is not None:
        assert [(k, type(v), v) for k, v in got.items()] == \
            [(k, type(v), v) for k, v in want.items()]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_convolution_inverse_of_single_entries_other_than_the_int_one(data):
    # on a group algebra each unknown's column holds the one term f's column
    # gives it, of f's value: the system is monomial exactly when f's entries
    # are int ones, and it, the inverse and any refusal are the probing
    # reference's
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    group = data.draw(st.sampled_from((cyclic(2), cyclic(3), symmetric3())), label="group")
    h = group_algebra(group, fld)
    n = h.obj.dim
    full = data.draw(st.booleans(), label="full")
    cols = data.draw(_boundary_cols(fld, n, n, full), label="f")
    f = LinMap(fld, shape(n), shape(n), tuple(cols))
    assert f.monomial == _unit_cols(cols)
    assert _assert_same_system(f, h, h).monomial == _unit_cols(cols)


# -- one builder from entry triples ------------------------------------------------


def _from_terms_reference(fld, dom, cod, terms):
    # a zero term and a sum that cancels are dropped on the spot
    cols = [{} for _ in range(dom.total)]
    for c, r, v in terms:
        if v:
            cols[c][r] = fld.add(cols[c][r], v) if r in cols[c] else v
            if not cols[c][r]:
                del cols[c][r]
    return LinMap(fld, dom, cod, tuple(cols))


FROM_TERMS_SCALARS = {QQ: [0, Fraction(0), 1, 1, 1, Fraction(1), -1, 2],
                      GF5: [0, 1, 1, 1, 4, 2]}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_terms_agrees_with_a_dict_accumulating_reference(data):
    # duplicate positions, sums that cancel, stored zeros, Fraction ones
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    nc, nr = data.draw(st.integers(0, 3), label="cols"), data.draw(st.integers(1, 3), label="rows")
    term = st.tuples(st.integers(0, max(nc - 1, 0)), st.integers(0, nr - 1),
                     st.sampled_from(FROM_TERMS_SCALARS[fld]))
    terms = data.draw(st.lists(term, max_size=8 if nc else 0), label="terms")
    got = linmap.from_terms(fld, shape(nc), shape(nr), terms)
    ref = _from_terms_reference(fld, shape(nc), shape(nr), terms)
    assert (got.monomial, got.rows) == (ref.monomial, ref.rows)
    assert _held_terms(linmap._terms(got)) == _held_terms(linmap._terms(ref))
    assert got.entries() == ref.entries()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dict_held_lazy_products_agree_with_the_eager_reference(data):
    # factors of 2-3 entries per column: the product stays lazy, its columns
    # are the eager product's, and the mixed-product rule serves it too
    fld = data.draw(st.sampled_from((QQ, GF5)), label="field")
    values = st.sampled_from([2, -1, Fraction(1, 2), 1] if fld is QQ else [2, 3, 4, 1])

    def factor(label, n):
        cols = [{r: data.draw(values, label=label) for r in data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True), label=label)}
            for _ in range(n)]
        return LinMap(fld, shape(n), shape(n), tuple(cols))

    n1, n2 = (data.draw(st.integers(2, 3), label=x) for x in ("n1", "n2"))
    g1, g2, f1, f2 = (factor(x, n) for x, n in (("g1", n1), ("g2", n2), ("f1", n1), ("f2", n2)))
    for a, b in ((g1, g2), (f1, f2)):
        p = tensor(a, b)
        assert p.factors is not None and not p.monomial
        assert _nonzero(p.cols) == _nonzero(_tensor_eager(a, b).cols)
    got = tensor(g1, g2) @ tensor(f1, f2)
    assert got.factors is not None
    ref = _product(_tensor_eager(g1, g2), _tensor_eager(f1, f2))
    assert first_mismatch(got, ref) is None and first_mismatch(ref, got) is None


def test_an_unread_dict_held_product_builds_no_column(monkeypatch):
    built = []
    build = linmap._kron_all
    monkeypatch.setattr(linmap, "_kron_all", lambda *a: built.append(a) or build(*a))
    a = M([[0, 2], [3, 1]])
    k = tensor(a, identity(QQ, shape(3)), a)
    assert not k.monomial and repr(k) == "LinMap(Q, [2,3,2]->[2,3,2])"
    terms = linmap._terms(k)
    assert built == []
    assert terms == linmap._terms(_tensor_eager(a, identity(QQ, shape(3)), a))
    k.cols
    assert len(built) == 1


def test_a_built_product_lists_its_terms_from_its_columns(monkeypatch):
    a = M([[0, 2], [3, 1]])
    k = tensor(a, identity(QQ, shape(3)), a)
    k.cols
    paired = []
    pair = linmap._pair
    monkeypatch.setattr(linmap, "_pair", lambda *f: paired.append(f) or pair(*f))
    assert linmap._terms(k) == linmap._terms(_tensor_eager(a, identity(QQ, shape(3)), a))
    assert paired == []


# -- indices that are not integers ---------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: LinMap.from_cols(QQ, shape(2), shape(2), [{1.0: 1}, {0: 1}]),
    lambda: LinMap.from_cols(QQ, shape(2), shape(2), [{"a": 1}, {0: 1}]),
    lambda: identity(QQ, shape(2)).with_entry(1.0, 0, 5),
    lambda: identity(QQ, shape(2)).with_entry(0, "1", 5),
    lambda: identity(QQ, shape(2)).entry(0.5, 0),
    lambda: shape(2, 3).index((1.5, 0)),
    lambda: shape(2, 3).coords(2.0),
], ids=["row-float", "row-str", "with-entry-float", "with-entry-str", "entry-float",
        "index-float", "coords-float"])
def test_an_index_that_is_not_an_integer_is_refused(build):
    with pytest.raises(ShapeMismatch, match="is not an integer"):
        build()
