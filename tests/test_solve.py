from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.errors import ShapeMismatch
from hopfkit.fields import Field, QQ
from hopfkit.linmap import LinMap, TensorShape, identity, shape
from hopfkit.solve import invert, rref, solve

from helpers import rank_of


def M(rows, fld=QQ):
    nr, nc = len(rows), len(rows[0])
    return LinMap.from_entries(fld, TensorShape((nc,)), TensorShape((nr,)), rows)


def test_rref_hand_oracle():
    rows = [
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        {0: Fraction(2), 1: Fraction(4), 2: Fraction(7)},
    ]
    reduced, pivots = rref(rows, 3, QQ)
    assert pivots == [0, 2]
    assert reduced[0] == {0: Fraction(1), 1: Fraction(2)}
    assert reduced[1] == {2: Fraction(1)}


def test_rank():
    assert rank_of(M([[1, 2], [2, 4]])) == 1
    assert rank_of(M([[1, 2], [2, 5]])) == 2
    assert rank_of(M([[0, 0], [0, 0]])) == 0


def test_invert_oracle():
    a = M([[2, 1], [1, 1]])
    ainv = invert(a)
    assert ainv.entries() == [[1, -1], [-1, 2]]
    assert (ainv @ a).entries() == identity(QQ, shape(2)).entries()


def test_invert_singular_returns_none():
    assert invert(M([[1, 2], [2, 4]])) is None


def test_invert_gf5():
    f5 = Field.prime(5)
    a = M([[2, 0], [0, 3]], fld=f5)
    assert invert(a).entries() == [[3, 0], [0, 2]]  # 2*3 = 3*2 = 1 mod 5


def test_solve_consistent_and_inconsistent():
    a = M([[1, 2], [2, 4]])
    x = solve(a, {0: Fraction(3), 1: Fraction(6)})
    # any solution works; verify by substitution
    got0 = sum(a.entry(0, j) * x.get(j, Fraction(0)) for j in range(2))
    got1 = sum(a.entry(1, j) * x.get(j, Fraction(0)) for j in range(2))
    assert (got0, got1) == (Fraction(3), Fraction(6))
    assert solve(a, {0: Fraction(3), 1: Fraction(7)}) is None


@pytest.mark.parametrize("form", ["monomial", "dict-held"])
@pytest.mark.parametrize("row", [-1, 9])
def test_solve_refuses_a_rhs_row_outside_the_map(form, row):
    # unchecked, the monomial path gives None for both rows, while the
    # dict-held path solves row -1 as the last row and raises IndexError on 9
    m = identity(QQ, shape(2)) if form == "monomial" else M([[1, 1], [0, 1]])
    assert m.monomial == (form == "monomial")
    with pytest.raises(ShapeMismatch):
        solve(m, {row: 1})


square = st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                  min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(square)
def test_invert_round_trip(rows):
    a = M(rows)
    ainv = invert(a)
    if ainv is None:
        assert rank_of(a) < 3
        return
    ident = identity(QQ, shape(3))
    assert ainv @ a == ident
    assert a @ ainv == ident


@settings(max_examples=60, deadline=None)
@given(square)
def test_rref_is_projection(rows):
    sparse = [{j: QQ.coerce(v) for j, v in enumerate(r) if v} for r in rows]
    reduced, pivots = rref(sparse, 3, QQ)
    again, pivots2 = rref([dict(r) for r in reduced], 3, QQ)
    assert again == reduced and pivots2 == pivots
    for k, p in enumerate(pivots):
        assert reduced[k].get(p) == QQ.one
        # pivot columns are cleared elsewhere
        for other in range(len(pivots)):
            if other != k:
                assert p not in reduced[other]


def _rref_by_row_scan(rows, ncols, field):
    """Gauss-Jordan elimination that scans every row for each column: the
    reference the column-indexed :func:`rref` must agree with exactly."""
    work = [dict(r) for r in rows]
    pivots, pivot_rows = [], []
    used = [False] * len(work)
    for col in range(ncols):
        pivot = next((r for r, row in enumerate(work)
                      if not used[r] and row.get(col)), None)
        if pivot is None:
            continue
        used[pivot] = True
        prow = work[pivot]
        inv = field.inv(prow[col])
        if inv != field.one:
            prow = {c: field.mul(inv, v) for c, v in prow.items()}
            work[pivot] = prow
        for r, row in enumerate(work):
            factor = row.get(col)
            if r == pivot or not factor:
                continue
            for c, v in prow.items():
                t = field.sub(row.get(c, field.zero), field.mul(factor, v))
                if t:
                    row[c] = t
                else:
                    row.pop(c, None)
        pivots.append(col)
        pivot_rows.append(prow)
    return pivot_rows, pivots


# mostly zero: sparse rows, often singular
sparse_scalar = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])


@st.composite
def sparse_system(draw):
    """Rows of an augmented system ``[A | b]``, sometimes with a repeated row
    of ``A`` whose right-hand side differs, which makes it inconsistent."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(sparse_scalar, min_size=width + 1,
                                  max_size=width + 1),
                         min_size=1, max_size=7))
    if draw(st.booleans()):
        copy = list(draw(st.sampled_from(rows)))
        copy[-1] += 1
        rows.append(copy)
    return width, rows


@settings(max_examples=150, deadline=None)
@given(sparse_system(), st.sampled_from([QQ, Field.prime(5)]))
def test_rref_matches_the_row_scan_reference(system, fld):
    width, dense = system
    rows = [{c: fld.coerce(v) for c, v in enumerate(r) if fld.coerce(v)}
            for r in dense]
    # width + 1 lets the right-hand side hold a pivot (inconsistent systems);
    # width keeps it an augmented column, as ``invert`` does
    for ncols in (width, width + 1):
        got = rref(rows, ncols, fld)
        want = _rref_by_row_scan(rows, ncols, fld)
        assert got[1] == want[1]
        assert [[(c, str(v)) for c, v in r.items()] for r in got[0]] == \
            [[(c, str(v)) for c, v in r.items()] for r in want[0]]


# nonzero values over Q, some held as Fractions (an integral one included)
_Q_VALUES = [1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(1), Fraction(2)]


@st.composite
def monomial_system(draw):
    """A map of one entry per column at most, as built (monomial when each
    entry is the int one, dict-held otherwise) and held as dict columns,
    plus a right-hand side that is consistent, inconsistent, zero or
    anything."""
    fld = draw(st.sampled_from([QQ, Field.prime(5)]))
    values = _Q_VALUES if fld == QQ else [1, 2, 3, 4]
    entries = [1] if draw(st.booleans()) else values
    nrows = draw(st.integers(2, 6))
    # few rows, so that several columns often share one; 0 is a stored zero
    entry = st.one_of(st.just(None), st.tuples(st.integers(0, nrows - 1),
                                               st.sampled_from(entries + [0])))
    ncols = draw(st.one_of(st.just(nrows), st.integers(1, 8)))  # square or not
    raw = [{} if e is None else {e[0]: e[1]}
           for e in draw(st.lists(entry, min_size=ncols, max_size=ncols))]
    dom, cod = TensorShape((len(raw),)), TensorShape((nrows,))
    m = LinMap(fld, dom, cod, tuple(raw))
    # two stored zeros in one column keep the twin's columns as dicts
    twin_cols = [dict(c) for c in raw]
    twin_cols[0].update({r: 0 for r in (0, 1) if r not in twin_cols[0]})
    twin = LinMap(fld, dom, cod, tuple(twin_cols))
    held = sorted({r for c in raw for r, v in c.items() if v})
    unheld = [r for r in range(nrows) if r not in held]
    kind = draw(st.sampled_from(["consistent", "inconsistent", "zero", "any"]))
    value = st.sampled_from(values + [0])
    if kind == "zero":
        rhs = draw(st.dictionaries(st.integers(0, nrows - 1), st.just(0)))
    elif kind == "any" or not held:
        rhs = draw(st.dictionaries(st.integers(0, nrows - 1), value, min_size=1))
    else:
        rhs = draw(st.dictionaries(st.sampled_from(held), value, min_size=1))
    if kind == "inconsistent" and unheld:
        rhs[draw(st.sampled_from(unheld))] = draw(st.sampled_from(values))
    return m, twin, rhs


@settings(max_examples=200, deadline=None)
@given(monomial_system())
def test_monomial_solve_matches_the_rref_solve(system):
    m, twin, rhs = system
    # monomial exactly when no column holds a nonzero value other than the
    # int one (a stored zero is no entry)
    units = all(not v or (type(v) is int and v == 1) for c in m.cols for v in c.values())
    assert m.monomial == units and not twin.monomial
    got, want = solve(m, rhs), solve(twin, rhs)
    if want is None:
        assert got is None
    else:
        assert [(c, v, str(v)) for c, v in got.items()] == \
            [(c, v, str(v)) for c, v in want.items()]
