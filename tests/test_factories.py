"""Stock Hopf algebras against frozen structure constants."""
from fractions import Fraction

import pytest

from hopfkit.errors import CharTwo, InputError
from hopfkit.factories import (
    SWEEDLER_BASIS,
    function_algebra,
    group_algebra,
    linearize_endo,
    named_endo,
    sweedler_h4,
)
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import identity, shape, tensor
from hopfkit.structures import (
    antipode_property_check,
    check_cocommutative,
    check_hopf,
    coalgebra_morphism_report,
)

F = Fraction


def test_group_algebra_c2_structure_constants():
    h = group_algebra(cyclic(2), QQ)
    assert h.eta.entries() == [[1], [0]]
    assert h.mu.entries() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert h.eps.entries() == [[1, 1]]
    assert h.delta.entries() == [[1, 0], [0, 0], [0, 0], [0, 1]]
    assert h.antipode.entries() == [[1, 0], [0, 1]]


def test_group_algebra_s3_products():
    g = symmetric3()
    h = group_algebra(g, QQ)
    s2 = shape(6, 6)
    for a in range(6):
        for b in range(6):
            col = h.mu.cols[s2.index((a, b))]
            assert col == {g.mul(a, b): QQ.one}
    assert check_cocommutative(h)


def test_function_algebra_is_commutative_hopf():
    g = symmetric3()
    h = function_algebra(g, QQ)
    assert check_hopf(h).passed
    assert antipode_property_check(h).passed
    # commutative: pointwise product
    c = h.obj.braid
    assert h.mu @ c == h.mu
    # cocommutative exactly when the group is abelian
    assert not check_cocommutative(h)
    assert check_cocommutative(function_algebra(cyclic(4), QQ))


def test_function_algebra_pairs_with_group_algebra():
    # <f g, x> = <f (x) g, delta x> links the two constructions
    g = symmetric3()
    ga = group_algebra(g, QQ)
    fa = function_algebra(g, QQ)
    # fa.delta dualizes ga.mu: delta(f)(a (x) b) = f(ab)
    s2 = shape(6, 6)
    for x in range(6):
        col = fa.delta.cols[x]
        expect = {s2.index((a, b)): QQ.one
                  for a in range(6) for b in range(6) if g.mul(a, b) == x}
        assert col == expect


def test_sweedler_frozen_tables():
    h = sweedler_h4(QQ)
    assert check_hopf(h).passed
    assert SWEEDLER_BASIS == ("1", "g", "x", "gx")
    # g x = gx, x g = -gx, x^2 = 0
    s2 = shape(4, 4)
    assert h.mu.cols[s2.index((1, 2))] == {3: F(1)}
    assert h.mu.cols[s2.index((2, 1))] == {3: F(-1)}
    assert h.mu.cols[s2.index((2, 2))] == {}
    # delta(x) = x (x) 1 + g (x) x
    assert h.delta.cols[2] == {s2.index((2, 0)): F(1), s2.index((1, 2)): F(1)}
    # antipode: x -> -gx, gx -> x
    assert h.antipode.cols[2] == {3: F(-1)}
    assert h.antipode.cols[3] == {2: F(1)}


def test_sweedler_gf3():
    h = sweedler_h4(Field.prime(3))
    assert check_hopf(h).passed
    assert antipode_property_check(h).passed


def test_sweedler_char_two_refused():
    with pytest.raises(CharTwo):
        sweedler_h4(Field.prime(2))


def test_linearize_endo():
    g = symmetric3()
    q = linearize_endo(g, (0, 1, 1, 0, 0, 1), QQ)
    assert q @ q == q
    h = group_algebra(g, QQ)
    assert coalgebra_morphism_report(q, h, h).passed
    with pytest.raises(InputError):
        linearize_endo(g, (0, 1), QQ)
    with pytest.raises(InputError):
        linearize_endo(g, (0, 1, 1, 0, 0, 9), QQ)


def test_named_endo():
    g = symmetric3()
    assert named_endo(g, "identity") == (0, 1, 2, 3, 4, 5)
    assert named_endo(g, "trivial") == (0, 0, 0, 0, 0, 0)
    assert named_endo(g, "sign-retraction") == (0, 1, 1, 0, 0, 1)
    assert named_endo(g, "idx:0") == (0, 0, 0, 0, 0, 0)
    assert named_endo(g, "idx:4") == (0, 5, 5, 0, 0, 5)
    with pytest.raises(InputError):
        named_endo(g, "idx:9")
    with pytest.raises(InputError):
        named_endo(g, "nonsense")
    with pytest.raises(InputError):
        named_endo(cyclic(4), "sign-retraction")


def test_group_algebra_unit_counit_convention():
    # counit sends every grouplike to 1, unit picks out the identity element
    h = group_algebra(group_by_name("D4"), QQ)
    assert h.eps @ h.eta == identity(QQ, shape())
    assert (h.eps @ h.mu) == tensor(h.eps, h.eps)
