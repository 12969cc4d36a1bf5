"""Gaussian elimination over exact fields.

Rows are sparse dicts {column: nonzero value}; elimination only ever touches
the rows holding the pivot column and, in them, the nonzero entries of the
pivot row, which keeps the block-diagonal systems produced by convolution
inverses cheap.

``solve`` on a monomial map (at most one entry per column, that entry one,
see :mod:`hopfkit.linmap`) needs no elimination: the pivot of each row is
the lowest-numbered column holding it, as in ``rref``, and already one, so
the solution is the right-hand side read off by index arithmetic, identical
to the one ``rref`` gives.
"""
from __future__ import annotations

from .errors import ShapeMismatch
from .fields import Field
from .linmap import LinMap, _gather, from_terms


def rref(rows, ncols: int, field: Field):
    """Reduced row echelon form.

    ``rows`` is a list of sparse row dicts (consumed as given, not mutated).
    Returns ``(reduced_rows, pivot_cols)`` where ``reduced_rows`` contains
    only the nonzero rows, each with leading entry 1 in its pivot column and
    zeros above and below, ordered by pivot column.  The pivot of a column is
    its lowest-numbered row not yet used as a pivot.
    """
    mul, sub, one = field.mul, field.sub, field.one
    work = [dict(r) for r in rows]
    # column -> the rows with a nonzero entry there, for the columns that can
    # hold a pivot; updated whenever an entry appears or cancels, so a pivot
    # search and an elimination visit only the rows they concern
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(work):
        for c, v in row.items():
            if v and c < ncols:
                holders[c].add(r)
    pivots = []
    pivot_rows = []
    used = [False] * len(work)
    for col in range(ncols):
        rs = holders[col]
        pivot = min((r for r in rs if not used[r]), default=None)
        if pivot is None:
            continue
        used[pivot] = True
        prow = work[pivot]
        if prow[col] != one:
            inv = field.inv(prow[col])
            prow = {c: mul(inv, v) for c, v in prow.items()}
            work[pivot] = prow
        items = list(prow.items())
        for r in [r for r in rs if r != pivot]:
            row = work[r]
            factor = row[col]
            for c, v in items:
                t = sub(row.get(c, 0), mul(factor, v))
                if t:
                    row[c] = t
                    if c < ncols:
                        holders[c].add(r)
                else:
                    # fields have no zero divisors: t is 0 only where the
                    # row held the entry the product cancels
                    del row[c]
                    if c < ncols:
                        holders[c].discard(r)
        pivots.append(col)
        pivot_rows.append(prow)
    return pivot_rows, pivots


def invert(m: LinMap):
    """Inverse of a square map, or ``None`` if singular.

    The inverse's shapes are swapped: ``cod -> dom``.
    """
    n = m.dom.total
    if m.cod.total != n:
        raise ShapeMismatch(f"cannot invert non-square {m.dom}->{m.cod}")
    field = m.field
    rows = _rows_of(m)
    # augment with the identity in columns n..2n-1
    for i, row in enumerate(rows):
        row[n + i] = field.one
    reduced, pivots = rref(rows, n, field)
    if len(pivots) < n:
        return None
    # pivot of row r is column r (full rank, ordered pivots)
    return from_terms(field, m.cod, m.dom, [(c - n, r, v) for r, row in enumerate(reduced)
                                            for c, v in row.items() if c >= n])


def solve(m: LinMap, rhs_col: dict):
    """One solution x of ``m . x = rhs`` or ``None`` if inconsistent.

    ``rhs_col`` is a sparse column {row: value}; free variables are set to 0,
    so the answer is canonical for a fixed elimination order.  A monomial
    ``m`` is solved without elimination: the lowest-numbered column holding
    a row is its pivot and gets ``rhs[row]``; a nonzero ``rhs`` in a row no
    column holds makes the system inconsistent.  A row of ``rhs_col``
    outside ``m`` raises :class:`ShapeMismatch`.
    """
    n = m.dom.total
    field = m.field
    bad = [i for i in rhs_col if not 0 <= i < m.cod.total]
    if bad:
        raise ShapeMismatch(f"right-hand side row {bad[0]} out of range for {m.dom}->{m.cod}")
    if m.monomial:
        rows = _gather(m)
        # the lowest-numbered column holding a row is the last one written,
        # walking the columns from the right
        pivot = dict(zip(reversed(rows), range(n - 1, -1, -1)))
        if any(b and i not in pivot for i, b in rhs_col.items()):
            return None
        return {c: rhs_col[rows[c]] for c in sorted(pivot[i] for i, b in rhs_col.items() if b)}
    rows = _rows_of(m)
    aug = n  # column index holding the right-hand side
    for i, v in rhs_col.items():
        if v:
            rows[i][aug] = v
    # include the augmented column in the elimination: an inconsistent system
    # is exactly one whose rref has a pivot there
    reduced, pivots = rref(rows, n + 1, field)
    if pivots and pivots[-1] == aug:
        return None
    x = {}
    for prow, pcol in zip(reduced, pivots):
        rhs = prow.get(aug)
        # free variables are pinned at 0, so x[pivot] = reduced rhs
        if rhs:
            x[pcol] = rhs
    return x


def _rows_of(m: LinMap):
    rows = [dict() for _ in range(m.cod.total)]
    for j, col in enumerate(m.cols):
        for i, v in col.items():
            if v:  # a zero written raw into a column is no entry
                rows[i][j] = v
    return rows
