"""Braiding, (co)algebra law checkers, convolution, duals."""
from fractions import Fraction

import pytest

from helpers import monoid_bialgebra, negated_flip
from hopfkit.errors import NoAntipode, NonSymmetricBraiding, NotInvertible
from hopfkit.factories import group_algebra, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, TensorShape, flip, identity, shape, tensor
from hopfkit import structures
from hopfkit.structures import (
    BraidedObject,
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
    dual_pair,
    solve_antipode,
)


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


def test_non_flip_braiding_is_lawful_but_refuses_duality():
    # on a 1-dim object the flip is the identity; scaling by 2 is a
    # different, still lawful, braiding
    obj = BraidedObject(QQ, 1, braid=LinMap.from_entries(
        QQ, shape(1, 1), shape(1, 1), [[2]]))
    assert not obj.is_flip
    assert check_braided_object(obj).passed
    from hopfkit.structures import require_flip
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
    d = dual_pair(3, QQ)
    i1 = identity(QQ, shape(3))
    assert tensor(d.b, i1) @ tensor(i1, d.a) == i1
    assert tensor(i1, d.b) @ tensor(d.a, i1) == i1


def test_dual_algebra_is_matrix_unit_composition():
    from hopfkit.structures import check_algebra
    da = dual_algebra(3, QQ)
    assert check_algebra(da).passed
    # E_ij . E_kl = [j == k] E_il on the flat 9-dim carrier
    s2 = shape(9, 9)
    unit = lambda i, j: i * 3 + j
    col = da.mu.cols[s2.index((unit(0, 1), unit(1, 2)))]
    assert col == {unit(0, 2): QQ.one}
    assert da.mu.cols[s2.index((unit(0, 1), unit(0, 1)))] == {}


def test_gf5_group_algebra():
    f5 = Field.prime(5)
    h = group_algebra(group_by_name("Q8"), f5)
    assert check_hopf(h).passed
    assert solve_antipode(h) == h.antipode
