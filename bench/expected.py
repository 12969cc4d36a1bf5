"""Pinned results: what every op must observe, by op name.

A report is pinned as ``(laws, passed, skipped, witnessed)``: its law count,
its verdict, how many laws it skipped, and whether a failing law carries an
entry witness ``(row, col, lhs, rhs)``.  The values were read off the
program at the commit that introduced the benchmark, where the acceptance
tests pass; any later deviation counts as a failed op.
"""

# the idempotent-endomorphism trusses of the group catalog, "group/idx:k"
SUITE = tuple(
    f"{g}/idx:{k}"
    for g, count in (("C1", 1), ("C2", 2), ("C3", 2), ("C4", 2), ("C5", 2),
                     ("C6", 4), ("C7", 2), ("C8", 2), ("S3", 5), ("D4", 10),
                     ("Q8", 2))
    for k in range(count))
assert len(SUITE) == 34

# catalog op: check_truss + check_truss_derived, the post-Hopf round trip,
# the Rota-Baxter round trip, then the sigma and mu2 mutants, which must fail
# with a witness
CATALOG = dict.fromkeys(SUITE, (
    (27, True, 0, False),
    (7, True, 0, False),
    (7, True, 0, False),
    (21, False, 0, True),
    (21, False, 0, True),
))

# twisted op: check_twisted (all four laws pass: the structure is twisted),
# then derived_antipode_suite with none of its laws skipped (the paired
# inverse action is a coalgebra morphism, so the gated laws run).  Sweedler's
# H4 is not cocommutative and has no derived-antipode suite.
_TWISTED_GATED = ((4, True, 0, False), (9, True, 0, False))
TWISTED = dict.fromkeys(
    SUITE + ("trivial-C2", "trivial-S3", "conjugation-S3"), _TWISTED_GATED)
TWISTED["trivial-H4"] = ((4, True, 0, False), None)
# 38 structures pass check_twisted, 37 of them with the gated laws run
assert sum(v[0][1] for v in TWISTED.values()) == 38
assert sum(v[1] == _TWISTED_GATED[1] for v in TWISTED.values()) == 37

# ladder op: check_truss on a dihedral group algebra, every law passes
LADDER = dict.fromkeys(
    (f"D{k}/{endo}" for k in (4, 6, 8) for endo in ("identity", "trivial")),
    (21, True, 0, False))

# cli: D4 with its idempotent endomorphism idx:3, over each field
CLI = {
    "Q": {
        "truss_sha256": "602e1cdf6948cc46ef159e9709bedbf25263b48b7ec0ac1106539ddbf963c2ba",
        "wtph_sha256": "e3302fab2da45b590f069f44b4816bd4f3a08c34815f05156e45ca44df7d67bc",
        "wtrb_sha256": "d15912c306439aaf3f8c4b02a3642a518add340e95fffd143aba13c5af8c6c5c",
    },
    "GF:5": {
        "truss_sha256": "bc51a2da1c1b7f739d1d1c20ac70de397d8fc5638c0f3882d76c53e365dd6367",
        "wtph_sha256": "46b4e29dfff59d997d1f4b83e29527b24901217c164aad3f8f29bf2d5a53cbd4",
        "wtrb_sha256": "af623b472d96c033e00f24dc26371fdfbaa5ed292c132228b7d6e95928241cb7",
    },
}
CLI_LAWS = {"truss": 40, "wtph": 38, "wtrb": 52}

# law ids of `hopfkit report --report machine` on the truss file, in order
CLI_TRUSS_LAW_IDS = (
    "braid.yang-baxter",
    "braid.hexagon-consistency",
    "braid.invertible",
    "braid.natural-left[mu1]",
    "braid.natural-right[mu1]",
    "braid.natural-left[mu2]",
    "braid.natural-right[mu2]",
    "braid.natural-left[delta]",
    "braid.natural-right[delta]",
    "braid.natural-left[lambda]",
    "braid.natural-right[lambda]",
    "braid.natural-left[sigma]",
    "braid.natural-right[sigma]",
    "first.algebra.associative",
    "first.algebra.unit-left",
    "first.algebra.unit-right",
    "first.coalgebra.coassociative",
    "first.coalgebra.counit-left",
    "first.coalgebra.counit-right",
    "first.bialgebra.delta-multiplicative",
    "first.bialgebra.eps-multiplicative",
    "first.bialgebra.delta-unital",
    "first.bialgebra.eps-unital",
    "first.hopf.antipode-left",
    "first.hopf.antipode-right",
    "second.algebra.associative",
    "second.coalgebra.coassociative",
    "second.coalgebra.counit-left",
    "second.coalgebra.counit-right",
    "second.bialgebra.delta-multiplicative",
    "second.bialgebra.eps-multiplicative",
    "cocycle.morphism.delta-commutes",
    "cocycle.morphism.eps-commutes",
    "truss.distributivity",
    "derived.mu2-factors",
    "derived.cocycle-recovered",
    "derived.cocycle-mu2-linear",
    "derived.gamma.module.action-associative",
    "derived.gamma.module-algebra.unit-compat",
    "derived.gamma.module-algebra.product-compat",
)
