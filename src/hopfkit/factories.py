"""Concrete Hopf algebras: group algebras, their function duals, Sweedler's
four-dimensional algebra, and linearized group endomorphisms."""
from __future__ import annotations

from typing import Sequence, Tuple

from .errors import CharTwo, InputError, _echo, _echo_int
from .fields import Field, parse_natural
from .groups import GroupTable, idempotent_endos, symmetric3
from .linmap import LinMap, TensorShape, UNIT_SHAPE
from .structures import BraidedObject, HopfAlgebraData


def group_algebra(g: GroupTable, fld: Field) -> HopfAlgebraData:
    """Basis the group elements, product from the table, every element
    grouplike, antipode the inversion permutation.  Always cocommutative."""
    n = g.order
    one = fld.one
    obj = BraidedObject(fld, n)
    v1 = TensorShape((n,))
    v2 = TensorShape((n, n))
    eta = LinMap.from_cols(fld, UNIT_SHAPE, v1, [{g.identity: one}])
    mu = LinMap.from_cols(fld, v2, v1,
                          [{g.table[i][j]: one}
                           for i in range(n) for j in range(n)])
    eps = LinMap.from_cols(fld, v1, UNIT_SHAPE, [{0: one} for _ in range(n)])
    delta = LinMap.from_cols(fld, v1, v2, [{i * n + i: one} for i in range(n)])
    antipode = LinMap.from_cols(fld, v1, v1,
                                [{g.inverse[i]: one} for i in range(n)])
    return HopfAlgebraData(obj, eta, mu, eps, delta, antipode)


def function_algebra(g: GroupTable, fld: Field) -> HopfAlgebraData:
    """Functions on the group: pointwise product, coproduct dual to the
    table.  Commutative always, cocommutative exactly when g is abelian."""
    n = g.order
    one = fld.one
    obj = BraidedObject(fld, n)
    v1 = TensorShape((n,))
    v2 = TensorShape((n, n))
    eta = LinMap.from_cols(fld, UNIT_SHAPE, v1,
                           [{i: one for i in range(n)}])
    mu = LinMap.from_cols(fld, v2, v1,
                          [({i: one} if i == j else {})
                           for i in range(n) for j in range(n)])
    eps = LinMap.from_cols(
        fld, v1, UNIT_SHAPE,
        [({0: one} if i == g.identity else {}) for i in range(n)])
    dcols = [dict() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            dcols[g.table[a][b]][a * n + b] = one
    delta = LinMap.from_cols(fld, v1, v2, dcols)
    antipode = LinMap.from_cols(fld, v1, v1,
                                [{g.inverse[i]: one} for i in range(n)])
    return HopfAlgebraData(obj, eta, mu, eps, delta, antipode)


SWEEDLER_BASIS = ("1", "g", "x", "gx")


def sweedler_h4(fld: Field) -> HopfAlgebraData:
    """The four-dimensional algebra on {1, g, x, gx} with g^2 = 1, x^2 = 0
    and xg = -gx.  Neither commutative nor cocommutative; the antipode has
    order four.  Undefined in characteristic two."""
    if fld.char == 2:
        raise CharTwo("the sign relations collapse in characteristic 2")
    one = fld.one
    neg = fld.neg(one)
    obj = BraidedObject(fld, 4)
    v1 = TensorShape((4,))
    v2 = TensorShape((4, 4))
    # basis order: 1, g, x, gx
    prod = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, one), (1, 2): (3, one), (1, 3): (2, one),
        (2, 0): (2, one), (2, 1): (3, neg), (2, 2): None, (2, 3): None,
        (3, 0): (3, one), (3, 1): (2, neg), (3, 2): None, (3, 3): None,
    }
    mu = LinMap.from_cols(
        fld, v2, v1,
        [({prod[(i, j)][0]: prod[(i, j)][1]} if prod[(i, j)] else {})
         for i in range(4) for j in range(4)])
    eta = LinMap.from_cols(fld, UNIT_SHAPE, v1, [{0: one}])
    eps = LinMap.from_cols(fld, v1, UNIT_SHAPE,
                           [{0: one}, {0: one}, {}, {}])
    delta = LinMap.from_cols(fld, v1, v2, [
        {0: one},                   # 1   -> 1(x)1
        {1 * 4 + 1: one},           # g   -> g(x)g
        {2 * 4 + 0: one, 1 * 4 + 2: one},   # x  -> x(x)1 + g(x)x
        {3 * 4 + 1: one, 0 * 4 + 3: one},   # gx -> gx(x)g + 1(x)gx
    ])
    antipode = LinMap.from_cols(fld, v1, v1, [
        {0: one}, {1: one}, {3: neg}, {2: one},
    ])
    return HopfAlgebraData(obj, eta, mu, eps, delta, antipode)


def linearize_endo(g: GroupTable, images: Sequence[int], fld: Field) -> LinMap:
    """The basis-permuting (generally non-injective) map a group endomorphism
    induces on the group algebra."""
    n = g.order
    if len(images) != n or any(not (0 <= v < n) for v in images):
        raise InputError("endomorphism images do not index the group")
    v1 = TensorShape((n,))
    return LinMap.from_cols(fld, v1, v1,
                            [{images[i]: fld.one} for i in range(n)])


_S3_SIGN_RETRACTION = (0, 1, 1, 0, 0, 1)


def named_endo(g: GroupTable, name: str) -> Tuple[int, ...]:
    """Resolve an endomorphism by its CLI name.

    ``identity`` and ``trivial`` exist for every group; ``sign-retraction``
    is the retraction of the standard S3 table onto its first transposition;
    ``idx:N``, with ``N`` 1 to 4300 ASCII digits, picks from the sorted
    idempotent enumeration."""
    n = g.order
    if name == "identity":
        return tuple(range(n))
    if name == "trivial":
        return (g.identity,) * n
    if name == "sign-retraction":
        if g.table != symmetric3().table:
            raise InputError("sign-retraction is defined for the catalog S3 table")
        return _S3_SIGN_RETRACTION
    if name.startswith("idx:"):
        k = parse_natural(name[4:])
        if k is None:
            raise InputError(f"bad endomorphism index in {_echo(name)}")
        endos = idempotent_endos(g)
        if k >= len(endos):
            raise InputError(f"endomorphism index {_echo_int(k)} out of range "
                             f"(group has {len(endos)})")
        return endos[k]
    raise InputError(
        f"unknown endomorphism {_echo(name)} "
        "(use identity, trivial, sign-retraction, or idx:N)")
