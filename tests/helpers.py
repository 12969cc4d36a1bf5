"""Builders shared between test modules."""
from dataclasses import replace

from hopfkit.factories import group_algebra
from hopfkit.fields import QQ
from hopfkit.groups import cyclic
from hopfkit.linmap import LinMap, TensorShape, UNIT_SHAPE, flip
from hopfkit.post_hopf import trivial_post_hopf
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


def negated_flip_c2_post_hopf(fld=QQ):
    """The trivial post-Hopf structure on the C2 group algebra braided by
    minus the flip, a braiding under which the action cannot be curried."""
    c = flip(fld, 2, 2)
    minus = [{i: fld.neg(v) for i, v in col.items()} for col in c.cols]
    obj = BraidedObject(fld, 2, braid=LinMap.from_cols(fld, c.dom, c.cod, minus))
    return trivial_post_hopf(replace(group_algebra(cyclic(2), fld), obj=obj))
