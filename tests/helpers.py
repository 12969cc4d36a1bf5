"""Builders shared between test modules."""
from dataclasses import replace

from hopfkit.factories import group_algebra, linearize_endo
from hopfkit.fields import QQ
from hopfkit.groups import GROUPS, cyclic, group_by_name, idempotent_endos
from hopfkit.linmap import LinMap, TensorShape, UNIT_SHAPE, flip, shape, tensor, zero_map
from hopfkit.post_hopf import PostHopfData, trivial_post_hopf
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit.solve import _rows_of, invert, rref
from hopfkit.structures import BialgebraData, BraidedObject, braiding_between
from hopfkit.truss import truss_action

# verdict lines collected by the acceptance tests; a terminal-summary hook in
# conftest.py replays them after the run, outside pytest's output capture
VERDICTS = []


def monoid_bialgebra(fld=QQ):
    """The 2-element monoid {1, z} with z*z = z, both elements grouplike.

    A bialgebra whose identity map has no convolution inverse (z would need
    an inverse in the monoid), so antipode synthesis must refuse it.
    """
    one = fld.one
    obj = BraidedObject(fld, 2)
    v1, v2 = TensorShape((2,)), TensorShape((2, 2))
    eta = LinMap.from_cols(fld, UNIT_SHAPE, v1, [{0: one}])
    mu = LinMap.from_cols(fld, v2, v1, [{0: one}, {1: one}, {1: one}, {1: one}])
    eps = LinMap.from_cols(fld, v1, UNIT_SHAPE, [{0: one}, {0: one}])
    delta = LinMap.from_cols(fld, v1, v2, [{0: one}, {3: one}])
    return BialgebraData(obj, eta, mu, eps, delta)


def dual_pair(n, fld=QQ):
    """The basis pairing of ``[n]`` with itself, ``(a, b)``: coevaluation
    ``a = sum_i e_i (x) e_i`` and evaluation ``b(e_i (x) e_j) = [i == j]``.
    The reference the currying tests compare the index arithmetic against."""
    nn = TensorShape((n, n))
    a = LinMap.from_cols(fld, UNIT_SHAPE, nn, [{i * n + i: 1 for i in range(n)}])
    b = LinMap.from_cols(fld, nn, UNIT_SHAPE,
                         [{0: 1} if i == j else {} for i in range(n) for j in range(n)])
    return a, b


def rank_of(m):
    """The rank of ``m``: the number of pivots ``rref`` finds in its rows."""
    return len(rref(_rows_of(m), m.dom.total, m.field)[1])


def rebased(b):
    """The bialgebra ``b`` in the basis ``p(e_i) = d_i e_i + 2 e_{i-1}``
    (``d_i`` 1 and 2 alternately): isomorphic to ``b``, but its structure
    constants are not all 0 and 1, and a coproduct may hold several terms
    with the same right factor."""
    fld, n = b.obj.field, b.obj.dim
    p = LinMap.from_entries(fld, shape(n), shape(n),
                            [[(1 + j % 2) if i == j else 2 if j == i + 1 else 0
                              for j in range(n)] for i in range(n)])
    q = invert(p)
    return BialgebraData(b.obj, q @ b.eta, q @ b.mu @ tensor(p, p), b.eps @ p,
                         tensor(q, q) @ b.delta @ p)


# lines of a C2 group-algebra file with a header integer replaced by a form
# ``int()`` accepts but ``dumps`` never writes: non-ASCII digits, digit-group
# underscores, a sign
HEADER_INTEGER_FORMS = [
    ("dim: 2", "dim: ٢"),
    ("dim: 2", "dim: 0_2"),
    ("dim: 2", "dim: +2"),
    ("format-version: 1", "format-version: ١"),
    ("map eta: 2x1", "map eta: +2x١"),
    ("map eta: 2x1", "map eta: 2x0_1"),
    ("field: Q", "field: GF:٥"),
    ("field: Q", "field: GF:+5"),
]


def suite_trusses(fld=QQ):
    """Every idempotent-endomorphism truss over the group catalog."""
    out = []
    for gname in GROUPS:
        g = group_by_name(gname)
        h = group_algebra(g, fld)
        for endo in idempotent_endos(g):
            q = linearize_endo(g, endo, fld)
            out.append((f"{gname}/{endo}", truss_from_idempotent(h, q)))
    return out


def negated_flip(fld, dim):
    """A dim-``dim`` object braided by minus the flip: symmetric, but not the
    flip, so nothing that needs the dual pairing applies to it."""
    c = flip(fld, dim, dim)
    minus = [{i: fld.neg(v) for i, v in col.items()} for col in c.cols]
    return BraidedObject(fld, dim, braid=LinMap.from_cols(fld, c.dom, c.cod, minus))


def negated_flip_c2_post_hopf(fld=QQ):
    """The trivial post-Hopf structure on the C2 group algebra braided by
    minus the flip, a braiding under which the action cannot be curried."""
    h = group_algebra(cyclic(2), fld)
    return trivial_post_hopf(replace(h, obj=negated_flip(fld, 2)))


def zero_action_c2_post_hopf(fld=QQ):
    """The C2 group algebra acted on by zero, cocycle the identity: the
    curried action has no convolution inverse."""
    h = group_algebra(cyclic(2), fld)
    return PostHopfData(hopf=h, action=zero_map(fld, shape(2, 2), shape(2)),
                        cocycle=h.obj.id(1))


def c2_identity_truss(fld=QQ):
    """The truss of the identity endomorphism of C2: both products the
    group product, so the second one is unital."""
    g = cyclic(2)
    h = group_algebra(g, fld)
    return truss_from_idempotent(h, linearize_endo(g, tuple(range(2)), fld))


def mixed_braiding_c2_rota_baxter(fld=QQ):
    """The operator structure of :func:`c2_identity_truss` with the carrier
    braided by minus the flip and the target kept flip-braided, so no
    braiding between the two objects is known."""
    w = rota_baxter_from_truss(c2_identity_truss(fld))
    return replace(w, hopf=replace(w.hopf, obj=negated_flip(fld, 2)))


# The right sides of the three distributive laws as the checkers composed
# them before reading ``x (x) y`` as ``(id (x) y) . (x (x) id (x) id)``: the
# references the interchanged forms are compared against.


def distributivity_rhs(t):
    """``mu1 . (mu2 (x) gamma) . (id (x) c (x) id) . (delta (x) id (x) id)``."""
    i1 = t.obj.id(1)
    return t.mu1 @ (tensor(t.mu2, truss_action(t))
                    @ (tensor(i1, t.obj.braid, i1) @ tensor(t.delta, i1, i1)))


def action_distributes_rhs(w):
    """``mu . (m (x) m) . (id (x) c (x) id) . (delta (x) id (x) id)``."""
    h, i1 = w.hopf, w.obj.id(1)
    return h.mu @ (tensor(w.action, w.action)
                   @ (tensor(i1, w.obj.braid, i1) @ tensor(h.delta, i1, i1)))


def product_compat_rhs(acting, phi, alg):
    """``mu . (phi (x) phi) . (id (x) c (x) id) . (delta (x) id (x) id)``,
    ``c`` the braiding of the acting object past the carrier."""
    ix, ic = acting.obj.id(1), alg.obj.id(1)
    cxa = braiding_between(acting.obj, alg.obj)
    return alg.mu @ (tensor(phi, phi) @ (tensor(ix, cxa, ic) @ tensor(acting.delta, ic, ic)))
