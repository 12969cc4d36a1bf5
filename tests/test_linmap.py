"""The linear-map layer against hand-computed Kronecker/flip oracles."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.errors import ShapeMismatch
from hopfkit.fields import Field, QQ
from hopfkit.linmap import (
    LinMap,
    TensorShape,
    UNIT_SHAPE,
    first_mismatch,
    flip,
    identity,
    shape,
    tensor,
    zero_map,
)


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
    assert z.nnz() == 0
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
