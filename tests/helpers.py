"""Builders shared between test modules."""
from dataclasses import replace

from hopfkit.factories import group_algebra, linearize_endo
from hopfkit.fields import QQ
from hopfkit.groups import GROUPS, cyclic, group_by_name, idempotent_endos
from hopfkit.linmap import LinMap, TensorShape, UNIT_SHAPE, flip
from hopfkit.post_hopf import trivial_post_hopf
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit.structures import BialgebraData, BraidedObject

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


def suite_trusses():
    """Every idempotent-endomorphism truss over the group catalog, over Q."""
    out = []
    for gname in GROUPS:
        g = group_by_name(gname)
        h = group_algebra(g, QQ)
        for endo in idempotent_endos(g):
            q = linearize_endo(g, endo, QQ)
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
