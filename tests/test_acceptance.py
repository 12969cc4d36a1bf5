"""Acceptance checks for the package contract.

Each test covers one numbered contract item, asserts exact equalities (no
tolerances anywhere), and prints a single ``pass``/``FAIL`` verdict line on
the real stdout so the verdicts stay visible under pytest's capture.
"""
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from helpers import VERDICTS, monoid_bialgebra, suite_trusses
from hopfkit.errors import NoAntipode
from hopfkit.factories import (function_algebra, group_algebra, linearize_endo,
                               named_endo, sweedler_h4)
from hopfkit.fields import Field, QQ
from hopfkit.groups import GROUPS, group_by_name, symmetric3
from hopfkit.linmap import LinMap, identity, shape, tensor
from hopfkit.post_hopf import (cocycle_identity_equivalence, conjugation_post_hopf,
                               derived_antipode, derived_product, check_twisted,
                               induced_hopf, pairing_inverse_is_coalg_morphism,
                               post_hopf_from_truss, split_idempotent,
                               trivial_post_hopf, truss_from_post_hopf)
from hopfkit.rota_baxter import (adjunction_check, operator_action,
                                 rb_equivalence_check, rota_baxter_from_truss,
                                 truss_from_idempotent, truss_from_rota_baxter)
from hopfkit.structures import (CheckReport, antipode_property_check,
                                check_cocommutative, check_hopf,
                                cocommutativity_class_check, solve_antipode)
from hopfkit.truss import check_truss, check_truss_derived


def _say(msg: str) -> None:
    VERDICTS.append(msg)
    print(msg, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        _say(f"criterion {num:2d}: FAIL  {title}")
        raise
    _say(f"criterion {num:2d}: pass  {title}")


GF5 = Field.prime(5)


def example_post_hopf_structures():
    s3 = group_algebra(symmetric3(), QQ)
    return [
        ("trivial-C2", trivial_post_hopf(group_algebra(group_by_name("C2"), QQ))),
        ("trivial-S3", trivial_post_hopf(s3)),
        ("trivial-H4", trivial_post_hopf(sweedler_h4(QQ))),
        ("conjugation-S3", conjugation_post_hopf(s3)),
    ]


def test_criterion_01_hopf_verification_suite():
    with criterion(1, "Hopf law suite over Q and GF(5) for the whole catalog"):
        t0 = time.perf_counter()
        carriers = [sweedler_h4(QQ)]
        for gname in GROUPS:
            g = group_by_name(gname)
            for fld in (QQ, GF5):
                carriers.append(group_algebra(g, fld))
        assert len(carriers) == 2 * len(GROUPS) + 1
        for h in carriers:
            rep = check_hopf(h)
            assert rep.passed, rep.lines()
            rep2 = antipode_property_check(h)
            assert rep2.passed, rep2.lines()
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"suite took {elapsed:.2f}s"


def test_criterion_02_antipode_synthesis():
    with criterion(2, "antipode synthesis: S3 inversion, Sweedler, no-antipode case"):
        g = symmetric3()
        h = group_algebra(g, QQ)
        inv = g.inverse
        expected = LinMap.from_cols(QQ, shape(6), shape(6),
                                    [{inv[j]: QQ.one} for j in range(6)])
        assert solve_antipode(h) == expected
        h4 = sweedler_h4(QQ)
        assert solve_antipode(h4) == h4.antipode
        with pytest.raises(NoAntipode):
            solve_antipode(monoid_bialgebra(QQ))


def test_criterion_03_truss_suite_and_mutations():
    with criterion(3, "truss suite over all idempotent endomorphisms + mutations"):
        suite = suite_trusses()
        assert len(suite) == 34
        for name, t in suite:
            rep = check_truss(t)
            rep.merge(check_truss_derived(t))
            assert rep.passed, (name, [r.line() for r in rep.failures()])

        # Single-entry perturbations.  Bumping any coefficient of the cocycle
        # breaks its counit-preservation law; bumping any coefficient of the
        # second product breaks the counit-multiplicativity law.  Both are laws
        # the full checker runs; evaluating them directly keeps the sweep over
        # all ~11,700 mutations fast, and the full checker is re-run on the
        # first mutation of each structure as a cross-check.
        mutations = 0
        for name, t in suite:
            fld = t.obj.field
            eps, n = t.eps, t.obj.dim
            eps2 = tensor(eps, eps)
            first = True
            for i in range(n):
                for j in range(n):
                    sig = t.cocycle.with_entry(
                        i, j, fld.add(t.cocycle.entry(i, j), fld.one))
                    rep = CheckReport()
                    rep.add("cocycle.morphism.counit", eps @ sig, eps)
                    if rep.passed:  # fall back to the full checker
                        rep = check_truss(replace(t, cocycle=sig))
                    assert not rep.passed, (name, "cocycle", i, j)
                    assert any(r.witness is not None for r in rep.failures())
                    if first:
                        full = check_truss(replace(t, cocycle=sig))
                        assert not full.passed
                        assert any(r.witness is not None for r in full.failures())
                    first = False
                    mutations += 1
            first = True
            for i in range(n):
                for j in range(n * n):
                    mu2 = t.mu2.with_entry(
                        i, j, fld.add(t.mu2.entry(i, j), fld.one))
                    rep = CheckReport()
                    rep.add("second.bialgebra.eps-multiplicative", eps @ mu2, eps2)
                    if rep.passed:
                        rep = check_truss(replace(t, mu2=mu2))
                    assert not rep.passed, (name, "mu2", i, j)
                    assert any(r.witness is not None for r in rep.failures())
                    if first:
                        full = check_truss(replace(t, mu2=mu2))
                        assert not full.passed
                        assert any(r.witness is not None for r in full.failures())
                    first = False
                    mutations += 1
        assert mutations == sum(t.obj.dim ** 2 + t.obj.dim ** 3
                                for _, t in suite)


def test_criterion_04_post_hopf_truss_isomorphism():
    with criterion(4, "round trips between twisted structures and trusses"):
        t0 = time.perf_counter()
        structures = example_post_hopf_structures()
        assert len(structures) >= 4
        for name, w in structures:
            t = truss_from_post_hopf(w)
            assert post_hopf_from_truss(t) == w, name
        s3 = group_algebra(symmetric3(), QQ)
        trusses = []
        for endo_name in ("sign-retraction", "trivial"):
            q = linearize_endo(symmetric3(),
                               named_endo(symmetric3(), endo_name), QQ)
            trusses.append((endo_name, truss_from_idempotent(s3, q)))
        assert len(structures) + len(trusses) >= 6
        for name, t in trusses:
            w = post_hopf_from_truss(t)
            assert truss_from_post_hopf(w) == t, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"round trips took {elapsed:.2f}s"


def test_criterion_05_operator_truss_equivalence():
    with criterion(5, "operator/truss equivalence and the morphism bijection"):
        suite = suite_trusses()
        for name, t in suite:
            w = rota_baxter_from_truss(t)
            assert truss_from_rota_baxter(w) == t, name
            rep = rb_equivalence_check(w)
            assert rep.passed, (name, [r.line() for r in rep.failures()])

        s3 = group_by_name("S3")
        h = group_algebra(s3, QQ)
        q = linearize_endo(s3, named_endo(s3, "sign-retraction"), QQ)
        t = truss_from_idempotent(h, q)
        w = rota_baxter_from_truss(t)
        i1 = t.obj.id(1)
        # identity morphism, a non-identity morphism, and a backward pair
        assert adjunction_check(t, w, f=i1).passed
        assert adjunction_check(t, w, f=t.cocycle).passed
        assert adjunction_check(t, w, pair=(i1, w.operator)).passed
        t2 = truss_from_idempotent(h, linearize_endo(
            s3, named_endo(s3, "identity"), QQ))
        w2 = rota_baxter_from_truss(t2)
        assert adjunction_check(t2, w2, f=t2.obj.id(1),
                                pair=(t2.obj.id(1), w2.operator)).passed


def test_criterion_06_lemma_regressions():
    with criterion(6, "structure lemmas: cocycle idempotence, absorption, units"):
        wtphs = [(n, post_hopf_from_truss(t)) for n, t in suite_trusses()]
        wtphs += example_post_hopf_structures()

        unital_cocycles = 0
        for name, w in wtphs:
            h = w.hopf
            if w.cocycle @ h.eta == h.eta:
                unital_cocycles += 1
                assert w.cocycle @ w.cocycle == w.cocycle, name
        assert unital_cocycles == len(wtphs)  # every suite cocycle is unital

        twisted = 0
        for name, w in wtphs:
            rep = check_twisted(w)
            if rep.passed and not any(r.skipped for r in rep.results):
                twisted += 1
                i1 = w.obj.id(1)
                assert w.action == w.action @ tensor(w.cocycle, i1), name
        assert twisted > 0

        unital_targets = 0
        for name, t in suite_trusses():
            w = rota_baxter_from_truss(t)
            if w.target.eta is None:
                continue
            unital_targets += 1
            h = w.hopf
            i1 = h.obj.id(1)
            assert operator_action(w) @ tensor(h.eta, i1) == i1, name
            assert w.operator @ h.eta == w.target.eta, name
        assert unital_targets == len(GROUPS)  # exactly the identity-endo rows


def test_criterion_07_derived_antipode_calculus():
    with criterion(7, "derived antipode: trivial case, convolution law, involution"):
        for gname in ("C2", "S3"):
            h = group_algebra(group_by_name(gname), QQ)
            w = trivial_post_hopf(h)
            assert derived_antipode(w) == h.antipode

        instances = [(n, post_hopf_from_truss(t)) for n, t in suite_trusses()]
        instances += example_post_hopf_structures()
        gated = 0
        for name, w in instances:
            h = w.hopf
            if not check_cocommutative(h) or not check_twisted(w).passed:
                continue
            i1 = w.obj.id(1)
            s = derived_antipode(w)
            bar = derived_product(w)
            assert bar @ tensor(i1, s) @ h.delta == h.eta @ h.eps, name
            if pairing_inverse_is_coalg_morphism(w):
                gated += 1
                assert s @ s == w.cocycle, name
                a, b = cocycle_identity_equivalence(w)
                assert a == b, name
        assert gated > 0


def test_criterion_08_idempotent_splitting():
    with criterion(8, "idempotent splitting and the induced Hopf structure"):
        s3 = group_by_name("S3")
        h = group_algebra(s3, QQ)
        q = linearize_endo(s3, named_endo(s3, "sign-retraction"), QQ)
        w = post_hopf_from_truss(truss_from_idempotent(h, q))
        assert w.cocycle == q
        split = split_idempotent(w.cocycle)
        assert split.rank == 2
        p, i = split.project, split.include
        assert i @ p == w.cocycle
        assert p @ i == identity(QQ, shape(2))
        ih, split2 = induced_hopf(w, split)
        assert split2 is split
        assert check_hopf(ih).passed
        assert ih.antipode == p @ derived_antipode(w) @ i
        assert solve_antipode(ih) == ih.antipode


def test_criterion_09_class_condition_discrimination():
    with criterion(9, "class condition: random maps vs. a genuine counterexample"):
        rng = random.Random(20260815)
        trials = 0
        for carrier in (group_algebra(symmetric3(), GF5),
                        function_algebra(group_by_name("C6"), GF5)):
            n = carrier.obj.dim
            for _ in range(60):
                rows = [[GF5.coerce(rng.randrange(5)) for _ in range(n * n)]
                        for _ in range(n)]
                f = LinMap.from_entries(GF5, shape(n, n), shape(n), rows)
                assert cocommutativity_class_check(f, carrier)
                trials += 1
        assert trials >= 100
        h4 = sweedler_h4(QQ)
        assert not cocommutativity_class_check(h4.mu, h4)


def test_criterion_10_cli_contract(tmp_path):
    with criterion(10, "CLI pipeline: gen/check/construct round trip, exit codes"):
        t0 = time.perf_counter()

        def cli(*argv):
            proc = subprocess.run([sys.executable, "-m", "hopfkit", *argv],
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        tfile = str(tmp_path / "t.txt")
        rc, out, err = cli("gen", "truss-q", "--group", "S3",
                           "--endo", "sign-retraction", "-o", tfile)
        assert rc == 0, err
        rc, out, _ = cli("check", tfile)
        assert rc == 0 and "all pass" in out

        wfile = str(tmp_path / "w.txt")
        back = str(tmp_path / "t2.txt")
        assert cli("construct", tfile, "--functor", "G", "-o", wfile)[0] == 0
        assert cli("check", wfile)[0] == 0
        assert cli("construct", wfile, "--functor", "F", "-o", back)[0] == 0
        with open(tfile, "rb") as fh:
            original = fh.read()
        with open(back, "rb") as fh:
            rebuilt = fh.read()
        assert original == rebuilt

        # exit code 1: a structure file whose laws fail
        with open(tfile) as fh:
            text = fh.read()
        needle = "map sigma: 6x6\n1 0 0 1 1 0"
        assert needle in text
        broken = str(tmp_path / "broken.txt")
        with open(broken, "w") as fh:
            fh.write(text.replace(needle, "map sigma: 6x6\n1 0 0 1 1 1"))
        rc, out, _ = cli("check", broken)
        assert rc == 1 and "FAIL" in out

        # exit code 2: unreadable input and an invalid request
        assert cli("check", str(tmp_path / "absent.txt"))[0] == 2
        assert cli("gen", "group-algebra", "--group", "E8",
                   "-o", str(tmp_path / "x.txt"))[0] == 2

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
