"""Braiding, (co)algebra law checkers, convolution, duals."""
import collections
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dual_pair,
    monoid_bialgebra,
    negated_flip,
    rebased,
    suite_trusses,
    zero_action_c2_post_hopf,
)
from hopfkit.errors import NoAntipode, NonSymmetricBraiding, NotInvertible, ShapeMismatch
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import GROUPS, cyclic, group_by_name, semidirect_group, symmetric3
from hopfkit.linmap import (LinMap, TensorShape, UNIT_SHAPE, flip, identity, shape, tensor,
                            zero_map)
from hopfkit import linmap, post_hopf, structures
from hopfkit import solve as solve_module
from hopfkit.rota_baxter import (adjunction_check, check_rb_morphism, rb_equivalence_check,
                                 rota_baxter_from_truss, truss_from_idempotent)
from hopfkit.solve import solve
from hopfkit.storage import StructureFile, structure_report
from hopfkit.structures import (
    AlgebraData,
    BialgebraData,
    BraidedObject,
    CoalgebraData,
    CheckReport,
    antipode_property_check,
    check_bialgebra,
    check_braided_object,
    check_cocommutative,
    check_hopf,
    cocommutativity_class_check,
    convolution,
    convolution_inverse,
    convolution_unit,
    coalgebra_morphism_report,
    dual_algebra,
    require_flip,
    solve_antipode,
)
from hopfkit.truss import check_truss_morphism


def test_flip_braided_object_passes_all_laws():
    obj = BraidedObject(QQ, 3)
    f = LinMap.from_entries(QQ, shape(3), shape(3),
                            [[1, 2, 0], [0, 1, 0], [5, 0, 1]])
    rep = check_braided_object(obj, {"f": f})
    assert rep.passed, str(rep)


def _permuted_flip(fld, n):
    """The flip followed by swapping basis vectors 0 and 1 of [n,n]: a
    permutation, like the flip, but not the flip."""
    cols = [dict(col) for col in flip(fld, n, n).cols]
    cols[0], cols[1] = cols[1], cols[0]
    return LinMap.from_cols(fld, shape(n, n), shape(n, n), cols)


@pytest.mark.parametrize("braid, is_flip", [
    (lambda fld, n: flip(fld, n, n), True),
    (lambda fld, n: negated_flip(fld, n).braid, False),
    (_permuted_flip, False),
], ids=["flip", "negated-flip", "permutation"])
def test_is_flip_is_decided_by_the_braid(braid, is_flip):
    obj = BraidedObject(QQ, 3, braid=braid(QQ, 3))
    assert obj.is_flip is is_flip
    assert (obj == BraidedObject(QQ, 3)) is is_flip


def test_flip_matrix_is_built_on_first_read(monkeypatch):
    calls = []
    real_flip = structures.flip
    monkeypatch.setattr(structures, "flip",
                        lambda *args: calls.append(args) or real_flip(*args))
    obj = BraidedObject(QQ, 5)
    alg = dual_algebra(8, QQ)
    assert obj.is_flip and alg.obj.is_flip
    assert repr(obj) == "BraidedObject(dim=5, Q, flip)"
    assert calls == []
    assert obj.braid == flip(QQ, 5, 5)
    assert calls == [(QQ, 5, 5)]


def test_braiding_powers_compose():
    obj = BraidedObject(QQ, 2)
    # c_{H^2,H} of the flip is the cycle moving the third strand to the front
    c21 = obj.braiding(2, 1)
    s3, _ = shape(2, 2, 2), None
    for i in range(2):
        for j in range(2):
            for k in range(2):
                col = s3.index((i, j, k))
                assert c21.cols[col] == {s3.index((k, i, j)): QQ.one}


def test_identities_are_kept_with_the_braidings():
    obj = BraidedObject(QQ, 2)
    for k in range(4):
        assert obj.id(k) is obj.braiding(0, k) is obj.id(k)
        assert obj.id(k) == identity(QQ, shape(*(2,) * k))
    assert obj.id() is obj.id(1)


def test_non_flip_braiding_is_lawful_but_refuses_duality():
    # on a 1-dim object the flip is the identity; scaling by 2 is a
    # different, still lawful, braiding
    obj = BraidedObject(QQ, 1, braid=LinMap.from_entries(
        QQ, shape(1, 1), shape(1, 1), [[2]]))
    assert not obj.is_flip
    assert check_braided_object(obj).passed
    with pytest.raises(NonSymmetricBraiding):
        require_flip(obj, "test")


def test_group_algebra_hopf_suite():
    for name in ("C4", "S3"):
        h = group_algebra(group_by_name(name), QQ)
        assert check_hopf(h).passed
        assert antipode_property_check(h).passed
        assert check_cocommutative(h)


def test_sweedler_not_cocommutative_antipode_order_four():
    h = sweedler_h4(QQ)
    assert check_hopf(h).passed
    rep = antipode_property_check(h)
    assert rep.passed, str(rep)
    assert not check_cocommutative(h)
    s = h.antipode
    s2 = s @ s
    assert s2 != identity(QQ, shape(4))
    assert s2 @ s2 == identity(QQ, shape(4))


def test_bialgebra_law_failure_carries_witness():
    h = group_algebra(cyclic(2), QQ)
    bad = h.mu.with_entry(1, 3, Fraction(1))  # g*g picks up an extra g
    from hopfkit.structures import HopfAlgebraData
    rep = check_hopf(HopfAlgebraData(h.obj, h.eta, bad, h.eps, h.delta,
                                     h.antipode))
    assert not rep.passed
    first = rep.failures()[0]
    assert first.witness is not None


def test_convolution_unit_and_inverse():
    h = group_algebra(symmetric3(), QQ)
    e = convolution_unit(h, h)
    assert convolution(e, e, h, h) == e
    ident = identity(QQ, shape(6))
    inv = convolution_inverse(ident, h, h)
    assert inv == h.antipode
    assert convolution(ident, inv, h, h) == e
    assert convolution(inv, ident, h, h) == e


def test_convolution_inverse_missing():
    b = monoid_bialgebra()
    with pytest.raises(NotInvertible):
        convolution_inverse(identity(QQ, shape(2)), b, b)


def _convolution_by_composite(f, g, coalg, alg):
    """``mu . (f (x) g) . delta`` through the generic kernel: the reference
    :func:`convolution` must agree with."""
    return alg.mu @ (tensor(f, g) @ coalg.delta)


def _probed_system(f, coalg, alg):
    """The system of ``f * x = unit`` found column by column, one full
    convolution of ``f`` with a single-entry map per unknown."""
    field = f.field
    ncod, ndom = f.cod.total, f.dom.total
    cols = []
    for i in range(ncod):
        for j in range(ndom):
            basis = LinMap(field, f.dom, f.cod,
                           tuple({i: field.one} if c == j else {} for c in range(ndom)))
            conv = _convolution_by_composite(f, basis, coalg, alg)
            cols.append({ii * ndom + jj: v
                         for jj, c in enumerate(conv.cols) for ii, v in c.items()})
    n_unknown = TensorShape((ncod * ndom,))
    return LinMap(field, n_unknown, n_unknown, tuple(cols))


def _convolution_inverse_by_probing(f, coalg, alg):
    """The solver :func:`convolution_inverse` replaced: the system is
    :func:`_probed_system`.  The reference the one-pass construction must
    agree with exactly, system, solution and messages alike."""
    field = f.field
    unit = convolution_unit(coalg, alg)
    ndom = f.dom.total
    rhs = {ii * ndom + jj: v for jj, c in enumerate(unit.cols) for ii, v in c.items()}
    x = solve(_probed_system(f, coalg, alg), rhs)
    if x is None:
        raise NotInvertible("no solution of f * x = unit (not convolution invertible)")
    inv_cols = [dict() for _ in range(ndom)]
    for flat, v in x.items():
        inv_cols[flat % ndom][flat // ndom] = v
    inverse = LinMap(field, f.dom, f.cod, tuple(inv_cols))
    if _convolution_by_composite(inverse, f, coalg, alg) != unit:
        raise NotInvertible("solution of f * x = unit is not a two-sided inverse")
    return inverse


def _inverse_or_message(solver, f, coalg, alg):
    """The inverse as its exact entries in print form, or the refusal."""
    try:
        return [[str(v) for v in row] for row in solver(f, coalg, alg).entries()]
    except NotInvertible as e:
        return ("NotInvertible", str(e))


def _assert_same_inverse(f, coalg, alg):
    got = _inverse_or_message(convolution_inverse, f, coalg, alg)
    assert got == _inverse_or_message(_convolution_inverse_by_probing, f, coalg, alg)
    return got


BIALGEBRAS = {
    "C2": lambda fld: group_algebra(cyclic(2), fld),
    "C3": lambda fld: group_algebra(cyclic(3), fld),
    "S3": lambda fld: group_algebra(symmetric3(), fld),
    "H4": sweedler_h4,
    "monoid": monoid_bialgebra,
    "S3-rebased": lambda fld: rebased(group_algebra(symmetric3(), fld)),
    "H4-rebased": lambda fld: rebased(sweedler_h4(fld)),
    "monoid-rebased": lambda fld: rebased(monoid_bialgebra(fld)),
}

# mostly zero, so that many maps have no convolution inverse
sparse_scalar = st.sampled_from([0, 0, 0, 1, 1, -1, 2])


@st.composite
def convolution_problem(draw):
    """A bialgebra over Q or GF(5) and a map on it: random, zero, the
    identity, or the identity with one entry replaced."""
    fld = draw(st.sampled_from([QQ, Field.prime(5)]))
    b = BIALGEBRAS[draw(st.sampled_from(sorted(BIALGEBRAS)))](fld)
    n = b.obj.dim
    kind = draw(st.sampled_from(["random", "zero", "identity", "perturbed"]))
    if kind == "random":
        rows = draw(st.lists(st.lists(sparse_scalar, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        f = LinMap.from_entries(fld, shape(n), shape(n), rows)
    elif kind == "zero":
        f = zero_map(fld, shape(n), shape(n))
    else:
        f = identity(fld, shape(n))
        if kind == "perturbed":
            f = f.with_entry(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)),
                             draw(sparse_scalar))
    return f, b


@settings(max_examples=80, deadline=None)
@given(convolution_problem())
def test_convolution_inverse_matches_the_probing_reference(problem):
    f, b = problem
    _assert_same_inverse(f, b, b)


@st.composite
def _convolution_map(draw, fld, n, cod):
    """A map ``[n] -> cod`` as raw columns: empty, or one or two entries, a
    stored zero among them; values held as ints or, on Q, as Fractions.
    Monomial when no column holds two entries or a value other than the int
    one."""
    wide = draw(st.booleans())
    cols = [{r: fld.coerce(draw(sparse_scalar))
             for r in draw(st.lists(st.integers(0, cod.total - 1), max_size=2 if wide else 1,
                                    unique=True))}
            for _ in range(n)]
    if fld is QQ and draw(st.booleans()):
        cols = [{r: Fraction(v) for r, v in c.items()} for c in cols]
    return LinMap(fld, shape(n), cod, tuple(cols))


@st.composite
def convolution_pair(draw):
    """``f``, ``g``, a bialgebra of ``BIALGEBRAS`` as the coalgebra, and as
    the algebra either that bialgebra or the dual algebra on its carrier,
    whose lazy ``mu`` takes maps reshaped to the flat ``[n*n]``."""
    fld = draw(st.sampled_from([QQ, Field.prime(5)]))
    b = BIALGEBRAS[draw(st.sampled_from(sorted(BIALGEBRAS)))](fld)
    n = b.obj.dim
    alg = b if draw(st.booleans()) else dual_algebra(n, fld)
    m = alg.obj.dim
    cod = shape(m) if alg is b else shape(n, n)
    f, g = (draw(_convolution_map(fld, n, cod)).reshape(shape(n), shape(m))
            for _ in range(2))
    return f, g, b, alg


@settings(max_examples=120, deadline=None)
@given(convolution_pair())
def test_convolution_agrees_with_the_composite(problem):
    f, g, coalg, alg = problem
    got = convolution(f, g, coalg, alg)
    assert alg is coalg or alg.mu.factors is not None  # the dual mu stays lazy
    want = _convolution_by_composite(f, g, coalg, alg)
    # the composite keeps a stored zero that a raw zero of f or g leads to in
    # a column of one entry; the one-pass convolution stores none
    assert got.cols == tuple({i: v for i, v in c.items() if v} for c in want.cols)
    assert got.dom == want.dom and got.cod == want.cod


def test_convolution_refuses_what_the_composite_refuses():
    h = group_algebra(cyclic(3), QQ)
    i2, i3 = identity(QQ, shape(2)), identity(QQ, shape(3))
    gf5 = Field.prime(5)
    cases = [
        (i2, i2, h, h),                                          # domain
        (i3, zero_map(QQ, shape(3), shape(2)), h, h),            # codomain
        (i3, i3.reshape(shape(3), shape(3, 1)), h, h),           # codomain, factor-wise
        (i3, identity(gf5, shape(3)), h, h),                     # field of g
        (i3, i3, group_algebra(cyclic(3), gf5), h),              # field of delta
        (i3, i3, h, group_algebra(cyclic(3), gf5)),              # field of mu
    ]
    for case in cases:
        with pytest.raises(ShapeMismatch):
            _convolution_by_composite(*case)
        with pytest.raises(ShapeMismatch):
            convolution(*case)


def test_convolution_inverse_refuses_a_mismatch_before_any_solve(monkeypatch):
    h3 = group_algebra(cyclic(3), QQ)
    i3 = identity(QQ, shape(3))
    gf5 = Field.prime(5)
    narrow = AlgebraData(BraidedObject(QQ, 2), zero_map(QQ, UNIT_SHAPE, shape(2)),
                         zero_map(QQ, shape(3, 3), shape(2)))
    point = CoalgebraData(BraidedObject(QQ, 1), zero_map(QQ, shape(1), UNIT_SHAPE),
                          zero_map(QQ, shape(1), shape(3, 3)))
    cases = [
        (identity(QQ, shape(2)), h3, h3),                   # domain against delta
        (i3, h3, group_algebra(cyclic(2), QQ)),             # codomain against mu
        (i3.reshape(shape(3), shape(3, 1)), h3, h3),        # codomain, factor-wise
        (identity(gf5, shape(3)), h3, h3),                  # field of f
        (i3, group_algebra(cyclic(3), gf5), h3),            # field of delta
        (i3, h3, narrow),                                   # mu lands outside f's codomain
        (i3, point, h3),                                    # delta starts outside f's domain
    ]
    calls = []
    for name in ("solve", "rref"):
        monkeypatch.setattr(solve_module, name, lambda *a, name=name: calls.append(name))
    for case in cases:
        with pytest.raises(ShapeMismatch):
            convolution_inverse(*case)
    assert calls == []


def test_convolution_inverse_refuses_a_one_sided_solution():
    # a non-lawful bialgebra over GF(3) on which f * x = unit is solvable
    # but its solution x has x * f != unit
    fld = Field.prime(3)
    v1, v2 = shape(2), shape(2, 2)
    b = BialgebraData(BraidedObject(fld, 2),
                      eta=LinMap.from_entries(fld, UNIT_SHAPE, v1, [[2], [0]]),
                      mu=LinMap.from_entries(fld, v2, v1, [[0, 0, 1, 0], [0, 1, 0, 1]]),
                      eps=LinMap.from_entries(fld, v1, UNIT_SHAPE, [[1, 0]]),
                      delta=LinMap.from_entries(fld, v1, v2, [[1, 0], [1, 0], [0, 0], [2, 0]]))
    f = LinMap.from_entries(fld, v1, v1, [[0, 2], [1, 0]])
    assert _assert_same_inverse(f, b, b) == (
        "NotInvertible", "solution of f * x = unit is not a two-sided inverse")


def _solved_system(f, coalg, alg):
    """The system :func:`convolution_inverse` hands to ``solve``, and the
    inverse or refusal it ends in."""
    seen = []
    real = solve_module.solve

    def spy(m, rhs):
        seen.append(m)
        return real(m, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve_module, "solve", spy)
        got = _inverse_or_message(convolution_inverse, f, coalg, alg)
    return seen[0], got


def _assert_same_system(f, coalg, alg):
    """The system, its form and the inverse agree with the probing reference:
    the system is monomial exactly when no column holds two nonzero rows or
    a value other than the int one.  The values equal the reference's; their
    types are the system's own, since the reference's kernel copies a factor
    equal to one from either side."""
    system, got = _solved_system(f, coalg, alg)
    want = tuple({i: v for i, v in c.items() if v} for c in _probed_system(f, coalg, alg).cols)
    assert system.cols == want
    assert system.monomial == all(len(c) <= 1 and all(type(v) is int and v == 1
                                                      for v in c.values())
                                  for c in system.cols)
    assert got == _inverse_or_message(_convolution_inverse_by_probing, f, coalg, alg)
    return system


def _point_problem(fld, dim, mu, f):
    """``f`` on the one-dimensional coalgebra (``delta = e (x) e``), into an
    algebra on ``[dim]`` with unit ``e_0`` and the product ``mu``, given as
    ``{(r, q): {p: value}}``; ``f`` is the raw column ``{r: value}``.  The
    coefficient of the unknown ``x[q]`` in row ``p`` is the sum over ``r`` of
    ``f[r] * mu[p, (r, q)]``, met in the order of ``f``, then of ``mu``."""
    one = TensorShape((1,))
    a = shape(dim)
    coalg = CoalgebraData(BraidedObject(fld, 1), LinMap.from_cols(fld, one, UNIT_SHAPE, [{0: 1}]),
                          LinMap.from_cols(fld, one, shape(1, 1), [{0: 1}]))
    alg = AlgebraData(BraidedObject(fld, dim), LinMap.from_cols(fld, UNIT_SHAPE, a, [{0: 1}]),
                      LinMap.from_cols(fld, shape(dim, dim), a,
                                       [mu.get(divmod(c, dim), {}) for c in range(dim * dim)]))
    return LinMap(fld, one, a, (f,)), coalg, alg


# how the unknowns x[q] fill up, f = e_0 + e_1 throughout: the product, the
# column x[0] ends with, and whether the system stays monomial
POINT_CASES = {
    # x[1] meets row 1, then row 0: the dict fallback starts mid-build, after
    # x[0] and the first row of x[1] were written in the monomial form
    "second-row": (2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 1}}, {0: 1}, False),
    # row 0 of x[0] cancels (1 - 1), then x[0] meets row 1
    "cancel-then-row": (2, {(0, 0): {0: 1}, (0, 1): {0: 1}, (1, 0): {0: -1, 1: 1}},
                        {1: 1}, True),
    # x[0] holds rows 0 and 1, row 0 cancels, then x[0] meets row 2
    "dict-cancel-then-row": (3, {(0, 0): {0: 1, 1: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                                 (1, 0): {0: -1, 2: 1}}, {1: 1, 2: 1}, False),
    # x[0] holds rows 0 and 1, then row 0 cancels: one row left, so monomial
    "dict-cancel-to-one-row": (2, {(0, 0): {0: 1, 1: 1}, (0, 1): {0: 1}, (1, 0): {0: -1}},
                               {1: 1}, True),
}


@pytest.mark.parametrize("fld", [QQ, Field.prime(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_convolution_inverse_writes_the_probed_system(fld, case):
    dim, mu, x0, monomial = POINT_CASES[case]
    mu = {rq: {p: fld.coerce(v) for p, v in col.items()} for rq, col in mu.items()}
    system = _assert_same_system(*_point_problem(fld, dim, mu, {0: 1, 1: 1}))
    assert system.cols[0] == x0
    assert system.monomial == monomial
    # f with values one held as Fractions, and with stored zeros
    ones = (Fraction(1),) if fld is QQ else ()
    for a in (1, 0, *ones):
        for b in (1, 0, *ones):
            col = {0: a, 1: b}
            if dim == 3:
                col[2] = 0
            _assert_same_system(*_point_problem(fld, dim, mu, col))


@st.composite
def small_structures(draw):
    """A coalgebra on ``[1]`` or ``[2]`` and an algebra on ``[1]`` to ``[3]``
    whose maps are raw columns of zero, one or two entries (stored zeros
    and, on Q, Fraction-held values among them), and two maps ``f`` and
    ``g`` between them."""
    fld = draw(st.sampled_from([QQ, Field.prime(5)]))
    c, a = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    coalg = CoalgebraData(BraidedObject(fld, c), draw(_convolution_map(fld, c, UNIT_SHAPE)),
                          draw(_convolution_map(fld, c, shape(c, c))))
    alg = AlgebraData(BraidedObject(fld, a),
                      draw(_convolution_map(fld, 1, shape(a))).reshape(UNIT_SHAPE, shape(a)),
                      draw(_convolution_map(fld, a * a, shape(a))).reshape(shape(a, a),
                                                                            shape(a)))
    f, g = (draw(_convolution_map(fld, c, shape(a))) for _ in range(2))
    return f, g, coalg, alg


@settings(max_examples=150, deadline=None)
@given(small_structures())
def test_convolution_and_its_inverse_agree_with_the_references(problem):
    f, g, coalg, alg = problem
    got = convolution(f, g, coalg, alg)
    want = _convolution_by_composite(f, g, coalg, alg)
    assert got.cols == tuple({i: v for i, v in c.items() if v} for c in want.cols)
    _assert_same_system(f, coalg, alg)


@pytest.mark.parametrize("fld", [QQ, Field.prime(5)], ids=["Q", "GF5"])
def test_convolution_inverse_writes_the_probed_system_of_lazy_and_monomial_mu(fld):
    # the dual algebra's lazy mu (n^3 entries in n^4 columns) for the curried
    # action, a group algebra's monomial mu for the antipode
    s3 = group_algebra(symmetric3(), fld)
    problem = _curried_problem(post_hopf.conjugation_post_hopf(s3))
    assert _assert_same_system(*problem).monomial
    assert problem[2].mu.factors is not None
    assert _assert_same_system(s3.obj.id(1), s3, s3).monomial
    h4 = sweedler_h4(fld)
    _assert_same_system(h4.obj.id(1), h4, h4)


def _post_hopf_suite(fld):
    s3 = group_algebra(symmetric3(), fld)
    return ([(name, post_hopf.post_hopf_from_truss(t)) for name, t in suite_trusses(fld)]
            + [("trivial-S3", post_hopf.trivial_post_hopf(s3)),
               ("conjugation-S3", post_hopf.conjugation_post_hopf(s3)),
               ("trivial-H4", post_hopf.trivial_post_hopf(sweedler_h4(fld))),
               ("zero-action-C2", zero_action_c2_post_hopf(fld))])


def _curried_problem(w):
    """The arguments :func:`post_hopf.curried_action_inverse` hands to
    :func:`convolution_inverse`."""
    n = w.obj.dim
    alpha = post_hopf.curried_action(w)
    return (alpha.reshape(alpha.dom, TensorShape((n * n,))), w.hopf,
            dual_algebra(n, w.obj.field))


@pytest.mark.parametrize("fld", [QQ, Field.prime(5)], ids=["Q", "GF5"])
def test_curried_inverses_and_antipodes_match_the_probing_reference(fld):
    refused = []
    for name, w in _post_hopf_suite(fld):
        if isinstance(_assert_same_inverse(*_curried_problem(w)), tuple):
            refused.append(name)
    assert refused == ["zero-action-C2"]
    for gname in GROUPS:
        h = group_algebra(group_by_name(gname), fld)
        _assert_same_inverse(h.obj.id(1), h, h)
    h4 = sweedler_h4(fld)
    _assert_same_inverse(h4.obj.id(1), h4, h4)


def _dihedral_conjugation(k):
    g = semidirect_group(cyclic(k), cyclic(2),
                         {0: tuple(range(k)), 1: tuple((-x) % k for x in range(k))})
    return post_hopf.conjugation_post_hopf(group_algebra(g, QQ))


def test_convolution_inverse_makes_no_per_unknown_convolution(monkeypatch):
    # D4 has 8^3 = 512 unknowns, D8 16^3 = 4096: the same number of map
    # operations builds both systems
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    counts = []
    for k in (4, 8):
        problem = _curried_problem(_dihedral_conjugation(k))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(structures, "tensor", counting("tensor", structures.tensor))
            m.setattr(linmap, "compose", counting("compose", linmap.compose))
            convolution_inverse(*problem)
        counts.append(collections.Counter(calls))
    assert counts[0] == counts[1]
    assert counts[0]["tensor"] < 8 and counts[0]["compose"] < 8


def test_convolution_inverse_builds_no_kronecker_product_before_its_solve(monkeypatch):
    # the system is read off f, delta and mu, and it is monomial, so no rref
    # runs; the closing two-sided check is read off the entries too, so the
    # one compose left is the unit's eta . eps
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for k in (4, 8):
        problem = _curried_problem(_dihedral_conjugation(k))
        calls.clear()
        with monkeypatch.context() as m:
            for module, name in ((solve_module, "rref"), (linmap, "_kron_all"),
                                 (structures, "tensor"), (linmap, "compose")):
                m.setattr(module, name, counting(name, getattr(module, name)))
            convolution_inverse(*problem)
        assert dict(calls) == {"compose": 1}
        assert problem[2].mu.factors is not None  # the dual mu is never read whole


def test_convolution_inverse_writes_its_system_in_the_monomial_form(monkeypatch):
    # the n^3-column system of the curried action is written as rows, never
    # read back through _monomial, and mu's entries are listed once, for the
    # system and the closing check alike
    for k in (4, 8):
        problem = _curried_problem(_dihedral_conjugation(k))
        f, mu = problem[0], problem[2].mu
        read_back, listed, calls = [], [], collections.Counter()

        def monomial(cols, one, real=linmap._monomial):
            read_back.append(len(cols))
            return real(cols, one)

        def terms(m, real=structures._terms):
            listed.append(m)
            return real(m)

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        with monkeypatch.context() as m:
            m.setattr(linmap, "_monomial", monomial)
            m.setattr(structures, "_terms", terms)
            for module, name in ((solve_module, "rref"), (linmap, "_kron_all"),
                                 (structures, "tensor"), (linmap, "compose")):
                m.setattr(module, name, counting(name, getattr(module, name)))
            convolution_inverse(*problem)
        assert f.dom.total * f.cod.total == (2 * k) ** 3
        assert all(n < (2 * k) ** 3 for n in read_back)
        assert len(listed) == 1 and listed[0] is mu
        assert dict(calls) == {"compose": 1}


def test_solve_antipode_group_algebra_is_inversion():
    h = group_algebra(symmetric3(), QQ)
    assert solve_antipode(h) == h.antipode


def test_solve_antipode_sweedler():
    h = sweedler_h4(QQ)
    assert solve_antipode(h) == h.antipode


def test_solve_antipode_refuses_monoid():
    with pytest.raises(NoAntipode):
        solve_antipode(monoid_bialgebra())


def test_monoid_is_a_bialgebra():
    assert check_bialgebra(monoid_bialgebra()).passed


def test_coalgebra_morphism_report():
    h = group_algebra(symmetric3(), QQ)
    coalg = h.as_coalgebra()
    assert coalgebra_morphism_report(h.antipode, coalg, coalg).passed
    bad = h.antipode.with_entry(0, 0, Fraction(2))
    rep = coalgebra_morphism_report(bad, coalg, coalg)
    assert not rep.passed


def test_cocommutativity_class_check():
    h = group_algebra(symmetric3(), QQ)
    assert cocommutativity_class_check(h.mu, h.as_coalgebra())
    h4 = sweedler_h4(QQ)
    assert not cocommutativity_class_check(h4.mu, h4.as_coalgebra())
    # but the trivial two-argument map passes even on H4
    triv = tensor(h4.eps, identity(QQ, shape(4)))
    assert cocommutativity_class_check(triv, h4.as_coalgebra())


def test_dual_pair_snake():
    a, b = dual_pair(3, QQ)
    i1 = identity(QQ, shape(3))
    assert tensor(b, i1) @ tensor(i1, a) == i1
    assert tensor(i1, b) @ tensor(a, i1) == i1


@pytest.mark.parametrize("fld", [QQ, Field.prime(2), Field.prime(5)], ids=["Q", "GF2", "GF5"])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
def test_dual_pair_snake_identities(fld, n):
    # the snake identities of the reference pairing the currying tests use
    a, b = dual_pair(n, fld)
    i1 = identity(fld, shape(n))
    assert tensor(b, i1) @ tensor(i1, a) == i1
    assert tensor(i1, b) @ tensor(a, i1) == i1
    assert b.rows is not None


def test_require_flip_returns_none_and_makes_no_kernel_call(monkeypatch):
    calls = collections.Counter()

    def spy(mod, name):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a: calls.update([name]) or real(*a))

    for mod, name in ((linmap, "tensor"), (linmap, "compose"),
                      (linmap, "first_mismatch"), (structures, "tensor"),
                      (structures, "identity"), (structures, "flip")):
        spy(mod, name)
    for fld in (QQ, Field.prime(5)):
        for n in (1, 3, 8):
            assert require_flip(BraidedObject(fld, n), "x") is None
    assert calls == {}


def test_require_flip_refuses_a_non_flip_carrier():
    obj = negated_flip(QQ, 2)
    assert not obj.is_flip
    with pytest.raises(NonSymmetricBraiding, match="^x needs the flip braiding$"):
        require_flip(obj, "x")


def test_dual_algebra_is_matrix_unit_composition():
    da = dual_algebra(3, QQ)
    assert CheckReport().laws(structures._algebra_rows(da)).passed
    # E_ij . E_kl = [j == k] E_il on the flat 9-dim carrier
    s2 = shape(9, 9)
    unit = lambda i, j: i * 3 + j
    col = da.mu.cols[s2.index((unit(0, 1), unit(1, 2)))]
    assert col == {unit(0, 2): QQ.one}
    assert da.mu.cols[s2.index((unit(0, 1), unit(0, 1)))] == {}


@pytest.mark.parametrize("fld", [QQ, Field.prime(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_algebra_is_a_unital_algebra_with_a_lazy_product(fld, n):
    da = dual_algebra(n, fld)
    assert da.mu.factors is not None
    # the unit is the identity matrix, sum_i E_ii
    assert da.eta.cols == ({i * n + i: fld.one for i in range(n)},)
    rep = CheckReport().laws(structures._algebra_rows(da))
    assert rep.passed and len(rep.results) == 3, str(rep)


def test_gf5_group_algebra():
    f5 = Field.prime(5)
    h = group_algebra(group_by_name("Q8"), f5)
    assert check_hopf(h).passed
    assert solve_antipode(h) == h.antipode


# law ids a checker legitimately writes twice: one law with two outcomes
# (checked, or failed on a singular braiding), and the law stated both for a
# post-Hopf structure and for the operator structure of a Rota-Baxter datum,
# in checkers whose other laws differ
SHARED_LAW_IDS = {
    "braid.invertible",
    "derived.derived-product-right-unit",
}


def test_each_law_id_is_stated_once():
    src = os.path.dirname(structures.__file__)
    literal = re.compile(r'"[a-z0-9.-]*[a-z]\.[a-z][a-z0-9.-]*"')
    counts = collections.Counter()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                counts.update(literal.findall(fh.read()))
    stated_twice = {lit.strip('"') for lit, n in counts.items() if n > 1}
    assert stated_twice == SHARED_LAW_IDS


# -- the law seam --------------------------------------------------------------


def _side(calls, tag, m):
    return lambda: calls.append(tag) or m


def test_laws_builds_lhs_then_rhs_once_per_row_in_row_order():
    i2 = identity(QQ, shape(2))
    calls = []
    rows = [(name, _side(calls, name + ".lhs", i2), _side(calls, name + ".rhs", rhs))
            for name, rhs in (("a", i2), ("b", flip(QQ, 1, 2)), ("c", i2))]
    rep = CheckReport().laws(rows, prefix="p.")
    assert calls == ["a.lhs", "a.rhs", "b.lhs", "b.rhs", "c.lhs", "c.rhs"]
    assert [(r.law, r.passed, r.skipped) for r in rep.results] == [
        ("p.a", True, False), ("p.b", False, False), ("p.c", True, False)]


def _never_built():
    raise AssertionError("a side of a skipped row was built")


def test_laws_with_a_skip_reason_builds_no_side():
    rows = [(name, _never_built, _never_built) for name in ("a", "b")]
    rep = CheckReport().laws(rows, "no reason to build", prefix="p.")
    assert rep.passed and rep.lines() == [
        "skip  p.a (no reason to build)", "skip  p.b (no reason to build)"]


def _s3_truss(endo):
    g = symmetric3()
    return truss_from_idempotent(group_algebra(g, QQ),
                                 linearize_endo(g, named_endo(g, endo), QQ))


def test_every_law_is_compared_by_check_report_laws(monkeypatch):
    add, callers = CheckReport.add, []

    def recorded(rep, name, lhs, rhs):
        callers.append((name, sys._getframe(1).f_code))
        return add(rep, name, lhs, rhs)

    monkeypatch.setattr(CheckReport, "add", recorded)
    ta, tb = _s3_truss("sign-retraction"), _s3_truss("identity")
    wa, wb = rota_baxter_from_truss(ta), rota_baxter_from_truss(tb)
    i6 = identity(QQ, shape(6))
    for kind, structure in (("hopf", ta.hopf()), ("truss", ta),
                            ("wtph", post_hopf.trivial_post_hopf(ta.hopf())),
                            ("wtrb", wb)):
        assert structure_report(StructureFile(kind, structure)).passed
    check_truss_morphism(i6, ta, tb)
    check_rb_morphism((i6, i6), wa, wb)
    adjunction_check(ta, wa, f=i6, pair=(i6, wa.operator))
    rb_equivalence_check(wa)
    post_hopf.roundtrip_check(post_hopf.trivial_post_hopf(ta.hopf()))
    reached = {name for name, _ in callers}
    assert {"braid.natural-left[lambda]", "truss.distributivity", "twisted.cocycle-unital",
            "rota-baxter.operator-multiplicative", "second.morphism.mu-commutes",
            "target.morphism.eps-commutes", "adjunction.forward-of-backward",
            "equivalence.target-product-conjugate", "roundtrip.action"} <= reached
    assert [name for name, code in callers if code is not CheckReport.laws.__code__] == []


def test_generator_rows_read_their_own_generator():
    # C2 braided by the flip with its off-diagonal entries negated: natural
    # for the identity, not for the swap of the two basis vectors
    braid = LinMap.from_cols(QQ, shape(2, 2), shape(2, 2), [{0: 1}, {2: -1}, {1: -1}, {3: 1}])
    swap = LinMap.from_entries(QQ, shape(2), shape(2), [[0, 1], [1, 0]])
    rep = check_braided_object(BraidedObject(QQ, 2, braid),
                               {"swap": swap, "id": identity(QQ, shape(2))})
    assert rep.lines()[-4:] == [
        "FAIL  braid.natural-left[swap]  witness=entry (0,2): 1 != -1",
        "FAIL  braid.natural-right[swap]  witness=entry (0,1): 1 != -1",
        "pass  braid.natural-left[id]",
        "pass  braid.natural-right[id]",
    ]


def test_a_singular_braiding_fails_invertibility_and_the_report_goes_on():
    rep = check_braided_object(BraidedObject(QQ, 2, zero_map(QQ, shape(2, 2), shape(2, 2))),
                               {"id": identity(QQ, shape(2))})
    assert [r.law for r in rep.results] == [
        "braid.yang-baxter", "braid.hexagon-consistency", "braid.invertible",
        "braid.natural-left[id]", "braid.natural-right[id]"]
    assert rep.failures()[0].line() == "FAIL  braid.invertible  witness='singular braiding'"
