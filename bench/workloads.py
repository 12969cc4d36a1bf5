"""The four benchmark workloads.

Each ``setup_*`` takes the hopfkit modules (``hk``), the seed and the
:class:`CliRunner` (whose directory is the run's scratch space), builds every
input, and returns the ops of one pass in seeded
order.  An op returns an observation that the harness compares with the
pinned expectation from ``expected.py``; an op that raises or observes
anything else counts as failed.

Ops never reuse cached state: the structures carry caches (the braiding
powers and duality data on ``BraidedObject``, the curried inverse on
``PostHopfData``), so every op starts from a fresh carrier object.  That keeps
every pass the same work, which is what makes the traced counts repeat.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Callable

import expected as X


@dataclass
class Op:
    name: str
    order: int                      # dimension of the carrier the op works on
    run: Callable[[], object]       # returns the observation
    expected: object


def verdict(rep):
    """What a check report must reproduce: law count, verdict, skips, witness."""
    witnessed = any(isinstance(r.witness, tuple) and len(r.witness) == 4
                    for r in rep.failures())
    skipped = sum(1 for r in rep.results if r.skipped)
    return (len(rep.results), rep.passed, skipped, witnessed)


def _pinned(ops, table):
    """The ops, provided none the table pins is missing (an op the table does
    not pin expects ``None`` and so fails)."""
    missing = set(table) - {op.name for op in ops}
    if missing:
        raise RuntimeError(f"pinned ops missing: {sorted(missing)}")
    return ops


def _fresh_obj(hk, obj):
    return hk.structures.BraidedObject(obj.field, obj.dim)


def _bump(fld, m, i, j):
    return m.with_entry(i, j, fld.add(m.entry(i, j), fld.one))


def suite_trusses(hk):
    """The idempotent-endomorphism trusses over the group catalog, over Q."""
    QQ = hk.fields.QQ
    out = []
    for gname in hk.groups.GROUPS:
        g = hk.groups.group_by_name(gname)
        h = hk.factories.group_algebra(g, QQ)
        for k, endo in enumerate(hk.groups.idempotent_endos(g)):
            q = hk.factories.linearize_endo(g, endo, QQ)
            out.append((f"{gname}/idx:{k}",
                        hk.rota_baxter.truss_from_idempotent(h, q)))
    return out


# ---------------------------------------------------------------------------
# catalog: pass path and witness path of the truss checker, both round trips
# ---------------------------------------------------------------------------


def setup_catalog(hk, seed, cli):
    rng = random.Random(seed)
    ops = []
    for name, t in suite_trusses(hk):
        n, fld = t.obj.dim, t.obj.field
        sigma = _bump(fld, t.cocycle, rng.randrange(n), rng.randrange(n))
        mu2 = _bump(fld, t.mu2, rng.randrange(n), rng.randrange(n * n))
        ops.append(Op(name, n, _catalog_op(hk, t, sigma, mu2), X.CATALOG.get(name)))
    rng.shuffle(ops)
    return _pinned(ops, X.CATALOG)


def _catalog_op(hk, t0, sigma, mu2):
    def run():
        t = replace(t0, obj=_fresh_obj(hk, t0.obj))
        rep = hk.truss.check_truss(t)
        rep.merge(hk.truss.check_truss_derived(t))
        return (verdict(rep),
                verdict(hk.post_hopf.truss_roundtrip_check(t)),
                verdict(hk.rota_baxter.truss_equivalence_check(t)),
                verdict(hk.truss.check_truss(replace(t, cocycle=sigma))),
                verdict(hk.truss.check_truss(replace(t, mu2=mu2))))
    return run


# ---------------------------------------------------------------------------
# twisted: curried-action inverses and antipode synthesis, over Q and GF(5)
# ---------------------------------------------------------------------------


def setup_twisted(hk, seed, cli):
    QQ = hk.fields.QQ
    ph = hk.post_hopf
    structures = [(name, ph.post_hopf_from_truss(t)) for name, t in suite_trusses(hk)]
    s3 = hk.factories.group_algebra(hk.groups.symmetric3(), QQ)
    c2 = hk.factories.group_algebra(hk.groups.group_by_name("C2"), QQ)
    structures += [
        ("trivial-C2", ph.trivial_post_hopf(c2)),
        ("trivial-S3", ph.trivial_post_hopf(s3)),
        ("trivial-H4", ph.trivial_post_hopf(hk.factories.sweedler_h4(QQ))),
        ("conjugation-S3", ph.conjugation_post_hopf(s3)),
    ]
    ops = [Op(name, w.obj.dim, _twisted_op(hk, w), X.TWISTED.get(name))
           for name, w in structures]
    _pinned(ops, X.TWISTED)
    for gname in hk.groups.GROUPS:
        g = hk.groups.group_by_name(gname)
        for fld in (QQ, hk.fields.Field.prime(5)):
            h = hk.factories.group_algebra(g, fld)
            inversion = tuple({g.inverse[j]: 1} for j in range(g.order))
            ops.append(Op(f"antipode/{gname}/{fld.token()}", g.order,
                          _antipode_op(hk, h), inversion))
    random.Random(seed).shuffle(ops)
    return ops


def _twisted_op(hk, w0):
    def run():
        hopf = replace(w0.hopf, obj=_fresh_obj(hk, w0.obj))
        w = hk.post_hopf.PostHopfData(hopf=hopf, action=w0.action,
                                      cocycle=w0.cocycle)
        twisted = verdict(hk.post_hopf.check_twisted(w))
        if not hk.structures.check_cocommutative(hopf):
            return twisted, None
        return twisted, verdict(hk.post_hopf.derived_antipode_suite(w))
    return run


def _antipode_op(hk, h0):
    def run():
        return hk.structures.solve_antipode(replace(h0, obj=_fresh_obj(hk, h0.obj))).cols
    return run


# ---------------------------------------------------------------------------
# ladder: the truss checker on dihedral group algebras of growing order
# ---------------------------------------------------------------------------

LADDER_K = (4, 6, 8)


def setup_ladder(hk, seed, cli):
    QQ = hk.fields.QQ
    groups = hk.groups
    c2 = groups.cyclic(2)
    ops = []
    for k in LADDER_K:
        g = groups.semidirect_group(
            groups.cyclic(k), c2,
            {0: tuple(range(k)), 1: tuple((-x) % k for x in range(k))})
        h = hk.factories.group_algebra(g, QQ)
        for endo, images in (("identity", tuple(range(g.order))),
                             ("trivial", (g.identity,) * g.order)):
            q = hk.factories.linearize_endo(g, images, QQ)
            t = hk.rota_baxter.truss_from_idempotent(h, q)
            name = f"D{k}/{endo}"
            ops.append(Op(name, g.order, _ladder_op(hk, t), X.LADDER.get(name)))
    random.Random(seed).shuffle(ops)
    return _pinned(ops, X.LADDER)


def _ladder_op(hk, t0):
    def run():
        return verdict(hk.truss.check_truss(replace(t0, obj=_fresh_obj(hk, t0.obj))))
    return run


# ---------------------------------------------------------------------------
# cli: one hopfkit process at a time, D4 over Q and over GF(5)
# ---------------------------------------------------------------------------

CLI_GROUP = "D4"
CLI_ENDO = "idx:3"
_RESULT = re.compile(r"^result: (\d+) laws checked, (all pass|\d+ FAIL)$", re.M)


class CliRunner:
    """Launches ``python -m hopfkit``; the traced run swaps in a shim that
    records spans inside the child and hands them back through a file."""

    def __init__(self, src_dir, workdir):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.workdir = workdir
        self.tracer = None

    def __call__(self, *argv):
        run = dict(cwd=self.workdir, env=self.env, capture_output=True,
                   text=True, timeout=120)
        if self.tracer is None:
            return subprocess.run([sys.executable, "-m", "hopfkit", *argv], **run)
        spans = os.path.join(self.workdir, "child-spans.json")
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        self.tracer.open_span("cli.process")
        try:
            proc = subprocess.run([sys.executable, shim, spans, *argv], **run)
            with open(spans, encoding="utf-8") as fh:
                self.tracer.merge_child(json.load(fh))
            os.unlink(spans)
        finally:
            self.tracer.close_span()
        return proc


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def setup_cli(hk, seed, cli):
    rng = random.Random(seed)
    g = hk.groups.group_by_name(CLI_GROUP)
    pipelines = []
    for token in ("Q", "GF:5"):
        fld = hk.fields.Field.from_token(token)
        h = hk.factories.group_algebra(g, fld)
        q = hk.factories.linearize_endo(g, hk.factories.named_endo(g, CLI_ENDO), fld)
        t = hk.rota_baxter.truss_from_idempotent(h, q)
        n = t.obj.dim
        bad = replace(t, cocycle=_bump(fld, t.cocycle, rng.randrange(n), rng.randrange(n)))
        tag = token.replace(":", "")
        mutant = os.path.join(cli.workdir, f"mutant-{tag}.txt")
        hk.storage.save(hk.storage.StructureFile("truss", bad, basis=list(g.names)), mutant)
        pipelines.append(_cli_pipeline(cli, token, tag, n, mutant))
    rng.shuffle(pipelines)
    return [op for ops in pipelines for op in ops]


def _checked(proc):
    m = _RESULT.search(proc.stdout)
    if m is None:
        return (proc.returncode, None, None)
    return (proc.returncode, int(m.group(1)), m.group(2) == "all pass")


def _cli_pipeline(cli, token, tag, n, mutant):
    ex = X.CLI[token]
    laws = X.CLI_LAWS
    truss, wtph, back, wtrb = (f"{stem}-{tag}.txt" for stem in
                               ("truss", "wtph", "back", "wtrb"))

    def gen():
        for path in (truss, wtph, back, wtrb):
            if os.path.exists(os.path.join(cli.workdir, path)):
                os.unlink(os.path.join(cli.workdir, path))
        rc = cli("gen", "truss-q", "--group", CLI_GROUP, "--field", token,
                 "--endo", CLI_ENDO, "-o", truss).returncode
        return rc, _sha(os.path.join(cli.workdir, truss))

    def report():
        proc = cli("report", truss, "--report", "machine")
        doc = json.loads(proc.stdout)
        return (proc.returncode, doc["passed"], tuple(r["law"] for r in doc["laws"]))

    def construct(functor, src, dst):
        def run():
            rc = cli("construct", src, "--functor", functor, "-o", dst).returncode
            return rc, _sha(os.path.join(cli.workdir, dst))
        return run

    def check(path):
        return lambda: _checked(cli("check", path))

    steps = [
        ("gen", gen, (0, ex["truss_sha256"])),
        ("check-truss", check(truss), (0, laws["truss"], True)),
        ("report-truss", report, (0, True, X.CLI_TRUSS_LAW_IDS)),
        ("construct-G", construct("G", truss, wtph), (0, ex["wtph_sha256"])),
        ("check-wtph", check(wtph), (0, laws["wtph"], True)),
        # F(G(t)) must reproduce the gen output byte for byte
        ("construct-F", construct("F", wtph, back), (0, ex["truss_sha256"])),
        ("construct-Lambda", construct("Lambda", truss, wtrb), (0, ex["wtrb_sha256"])),
        ("check-wtrb", check(wtrb), (0, laws["wtrb"], True)),
        ("check-mutant", check(mutant), (1, laws["truss"], False)),
        ("check-missing", check(f"absent-{tag}.txt"), (2, None, None)),
    ]
    return [Op(f"{CLI_GROUP}/{token}/{name}", n, run, want)
            for name, run, want in steps]


WORKLOADS = {
    "catalog": setup_catalog,
    "twisted": setup_twisted,
    "ladder": setup_ladder,
    "cli": setup_cli,
}
