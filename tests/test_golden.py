"""Golden pins: canonical file bytes, machine-report law lists and exit codes.

Every ``gen`` kind and every ``construct`` functor writes a file whose sha256
is pinned here, and ``check --report machine`` on it (and on a few deliberately
broken copies) must print exactly the pinned JSON document: law ids in
order, statuses, witnesses, skip reasons.  Malformed inputs must keep their
exit code.  The values were recorded from the implementation before the
storage schema refactor; any change to them is a behaviour change.
"""
import contextlib
import hashlib
import io
import os
from dataclasses import replace

import pytest

from helpers import (mixed_braiding_c2_rota_baxter, negated_flip_c2_post_hopf,
                     suite_trusses, zero_action_c2_post_hopf)
from hopfkit.cli import main
from hopfkit.errors import NotATrussMorphism, NotAnRBMorphism
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, identity, shape, tensor, zero_map
from hopfkit.post_hopf import (PostHopfData, check_post_hopf, check_twisted,
                               conjugation_post_hopf, derived_antipode_suite,
                               lemma_suite, post_hopf_from_truss,
                               roundtrip_check, trivial_post_hopf,
                               truss_roundtrip_check)
from hopfkit.rota_baxter import (adjunction_check, check_rb_morphism,
                                 check_rota_baxter, check_twisted_operator,
                                 derived_product_check, rb_equivalence_check,
                                 rota_baxter_from_truss, truss_equivalence_check,
                                 truss_from_idempotent)
from hopfkit.solve import invert
from hopfkit import storage
from hopfkit.storage import load, structure_report
from hopfkit.structures import BraidedObject, antipode_property_check
from hopfkit.truss import check_truss_morphism

# name -> gen arguments
GEN = [
    ("ga-s3", ["group-algebra", "--group", "S3"]),
    ("fa-c4-gf5", ["function-algebra", "--group", "C4", "--field", "GF:5"]),
    ("sweedler-gf7", ["sweedler", "--field", "GF:7"]),
    ("tq-d4-idx3", ["truss-q", "--group", "D4", "--endo", "idx:3"]),
    ("tq-s3-sign-gf5", ["truss-q", "--group", "S3", "--endo", "sign-retraction",
                        "--field", "GF:5"]),
    ("tu-s3", ["truss-upsilon", "--group", "S3", "--upsilon", "trivial",
               "--phi-endo", "identity"]),
    ("tq-c3-id", ["truss-q", "--group", "C3", "--endo", "identity"]),
]

# name -> (input name, functor)
CONSTRUCT = [
    ("G-s3", ("tq-s3-sign-gf5", "G")),
    ("F-s3", ("G-s3", "F")),
    ("Lambda-s3", ("tq-s3-sign-gf5", "Lambda")),
    ("Omega-s3", ("Lambda-s3", "Omega")),
    ("split-s3", ("G-s3", "split")),
    ("G-d4", ("tq-d4-idx3", "G")),
    ("Lambda-d4", ("tq-d4-idx3", "Lambda")),
    ("Lambda-c3", ("tq-c3-id", "Lambda")),  # unital second product: etaB
    ("Omega-c3", ("Lambda-c3", "Omega")),
]

# name -> (source file, map section, row whose first entry gets bumped)
MUTANTS = [
    ("ga-s3-bad-mu", ("ga-s3", "map mu: 6x36", 0)),
    ("tq-s3-bad-sigma", ("tq-s3-sign-gf5", "map sigma: 6x6", 0)),
    ("G-s3-bad-m", ("G-s3", "map m: 6x36", 1)),
    ("Lambda-s3-bad-T", ("Lambda-s3", "map T: 6x6", 2)),
]

# name -> (source file, text to replace, replacement)
BAD_INPUT = [
    ("bad-kind", ("ga-s3", "kind: hopf", "kind: mystery")),
    ("bad-dim", ("ga-s3", "dim: 6", "dim: 5")),
    ("bad-field", ("ga-s3", "field: Q", "field: GF:4")),
    ("bad-version", ("ga-s3", "format-version: 1", "format-version: 2")),
    ("missing-map", ("tq-s3-sign-gf5", "map sigma:", "map tau:")),
    ("bad-braiding", ("G-s3", "braiding: flip", "braiding: twisted")),
    ("missing-dimB", ("Lambda-s3", "dimB: 6", "")),
]


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _file_sha(p):
    with open(p, "rb") as fh:
        return _sha(fh.read())


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _bump_row(text, header, row):
    lines = text.split("\n")
    at = lines.index(header) + 1 + row
    toks = lines[at].split()
    toks[0] = "2" if toks[0] != "2" else "3"
    lines[at] = " ".join(toks)
    return "\n".join(lines)


def build_golden(directory):
    """Write every pinned file under ``directory``; return the observations."""
    obs = {}

    def path(name):
        return os.path.join(directory, name + ".txt")

    def check(name):
        argv = ["check", path(name), "--report", "machine"]
        with open(path(name)) as fh:
            if fh.read().split("\n")[1] != "kind: hopf":
                argv.append("--star")  # a hopf file has no class verdict
        code, out = _cli(*argv)
        return code, _sha(out)

    def rewrite(name, src, edit):
        with open(path(src)) as fh:
            text = fh.read()
        with open(path(name), "w") as fh:
            fh.write(edit(text))

    for name, argv in GEN:
        code, _ = _cli("gen", *argv, "-o", path(name))
        obs[name] = (code, _file_sha(path(name)), *check(name))
    for name, (src, functor) in CONSTRUCT:
        code, _ = _cli("construct", path(src), "--functor", functor,
                       "-o", path(name))
        obs[name] = (code, _file_sha(path(name)), *check(name))
    for name, (src, header, row) in MUTANTS:
        rewrite(name, src, lambda text: _bump_row(text, header, row))
        obs[name] = check(name)
    for name, (src, old, new) in BAD_INPUT:
        rewrite(name, src, lambda text: text.replace(old, new))
        obs[name] = _cli("check", path(name))[0]

    w = load(path("G-s3")).structure
    t = load(path("tq-s3-sign-gf5")).structure
    obs["roundtrip_check"] = roundtrip_check(w).lines()
    obs["truss_roundtrip_check"] = truss_roundtrip_check(t).lines()
    obs["truss_equivalence_check"] = truss_equivalence_check(t).lines()
    return obs


# name -> (gen/construct exit code, file sha256, check exit code,
#          sha256 of the ``check --report machine`` document)
GOLDEN = {
    'ga-s3': (
        0,
        'ce4eeb531763a49e85f9894837fafe292f3376491846afb09a9f7771c7ba8865',
        0,
        'd90a8132f9dfc82afc24362a8c04364f46133bd704d5e418dfff7600b15f5453',
    ),
    'fa-c4-gf5': (
        0,
        '1a80448fe342c7e9fd4d46a6485389f55440aebac79d5fbfc466bc3065a57d5f',
        0,
        '2c6f59743c77b53751f1ce31b7b2c17e450d2095a5f88adb3a067ef41d11c62d',
    ),
    'sweedler-gf7': (
        0,
        '6c5a99b91b7330e4c6a6a0d2fca14565d6798f05efa08abdb6e75d0bc6a45572',
        0,
        '91c222275a6b5c13900191bc97d9269e2a44032b9a5e6dc214ddce2287e0a789',
    ),
    'tq-d4-idx3': (
        0,
        '602e1cdf6948cc46ef159e9709bedbf25263b48b7ec0ac1106539ddbf963c2ba',
        0,
        '4bee67dd5220b05e273ede3960b2d3c7865e0e5e3974f89b4e93841727991bed',
    ),
    'tq-s3-sign-gf5': (
        0,
        'f135414bf7925a5747515609b7010bebd32b9c2075c9589636cf706ae9e0844e',
        0,
        '70fdebe22479f3b6afc9188012efd81848865df3743c2070a3e9ecd90979a7f5',
    ),
    'tu-s3': (
        0,
        '1df485f815817868f7cc71da018427a493bd85113e6e9c1be8f5c85ae4c9d078',
        0,
        'c4aa760d977dd97eaac6d2bdbd5f2d3992d2f301b8a8c0e1d74b32f5c07e6f0b',
    ),
    'tq-c3-id': (
        0,
        '778b666b3317f0610d39b7f45cdb5764795b877f677b02556ba5efa142320e17',
        0,
        '5fb8fb20fbde387dea575ef9f4bba7d8e47d18bfb94e949f46377036af4665e4',
    ),
    'G-s3': (
        0,
        '1590550a1a2d8a9aebcf6776b774345597b99880801d857a4606a279655e11b2',
        0,
        'be9fe4c8d72eab53d55fdd2c4e72874eec98b22dbeecb39fffd37474d7bb2493',
    ),
    'F-s3': (
        0,
        'f135414bf7925a5747515609b7010bebd32b9c2075c9589636cf706ae9e0844e',
        0,
        '70fdebe22479f3b6afc9188012efd81848865df3743c2070a3e9ecd90979a7f5',
    ),
    'Lambda-s3': (
        0,
        '329a4f439231e83a20495924cd200e8bca86fb9bdfc9dd7b8c19d3a4d43a0c02',
        0,
        '55f36d98beb94ca95216192afd41c38f069487de4ba16851fb71d8a9a7413de0',
    ),
    'Omega-s3': (
        0,
        'f135414bf7925a5747515609b7010bebd32b9c2075c9589636cf706ae9e0844e',
        0,
        '70fdebe22479f3b6afc9188012efd81848865df3743c2070a3e9ecd90979a7f5',
    ),
    'split-s3': (
        0,
        '32057a52ea34c92a008f9c210a464977e8c6e271f6012cc908b95d73638ff459',
        0,
        'c6063e3039dc6704fd2524eae491d386544272cb89a9deed78f8a892fe8ba1c9',
    ),
    'G-d4': (
        0,
        'e3302fab2da45b590f069f44b4816bd4f3a08c34815f05156e45ca44df7d67bc',
        0,
        '94a0d904a53114f58b6c7fae95ef5a7fb1d49ce624cd43913d6d1d1967c960be',
    ),
    'Lambda-d4': (
        0,
        'd15912c306439aaf3f8c4b02a3642a518add340e95fffd143aba13c5af8c6c5c',
        0,
        '0e7ba5394bf70f5ee0f25b565f06ef6b579f960ebfc3f15b1aed890952359726',
    ),
    'Lambda-c3': (
        0,
        'f7212bd4ce25b9648ec409e81b35afdaa860d8a87d73e77e344a9b7e1e3fa6d6',
        0,
        'f758d5960f3b1d98f7ce062f21418e3d6ff6dcede49ed5a603112f34951667be',
    ),
    'Omega-c3': (
        0,
        '778b666b3317f0610d39b7f45cdb5764795b877f677b02556ba5efa142320e17',
        0,
        '5fb8fb20fbde387dea575ef9f4bba7d8e47d18bfb94e949f46377036af4665e4',
    ),
    'ga-s3-bad-mu': (
        1,
        'cb78cfa7a5f8eeed2806503c08d262acb6c45c66a02d92122dbc279a1787d143',
    ),
    'tq-s3-bad-sigma': (
        1,
        'abe04ad4ff70245a6d3116b8ca9051ad38e18c029022ee8f0aa710a9d330b524',
    ),
    'G-s3-bad-m': (
        1,
        'f57a29e2bb96b0da78d7645578cfd4f668cb44359fce0a279e1a1f90a1bbffa1',
    ),
    'Lambda-s3-bad-T': (
        1,
        'eb5418ced4d6356d65ce1c35cc1a27ff10fa50536bd6bb827b73d4fd9d7d6237',
    ),
    'bad-kind': 2,
    'bad-dim': 2,
    'bad-field': 2,
    'bad-version': 2,
    'missing-map': 2,
    'bad-braiding': 2,
    'missing-dimB': 2,
}

ROUNDTRIP = {
    'roundtrip_check': [
        'pass  roundtrip.eta',
        'pass  roundtrip.mu',
        'pass  roundtrip.eps',
        'pass  roundtrip.delta',
        'pass  roundtrip.antipode',
        'pass  roundtrip.action',
        'pass  roundtrip.cocycle',
    ],
    'truss_roundtrip_check': [
        'pass  roundtrip.eta',
        'pass  roundtrip.mu1',
        'pass  roundtrip.mu2',
        'pass  roundtrip.eps',
        'pass  roundtrip.delta',
        'pass  roundtrip.antipode',
        'pass  roundtrip.cocycle',
    ],
    'truss_equivalence_check': [
        'pass  roundtrip.eta',
        'pass  roundtrip.mu1',
        'pass  roundtrip.mu2',
        'pass  roundtrip.eps',
        'pass  roundtrip.delta',
        'pass  roundtrip.antipode',
        'pass  roundtrip.cocycle',
    ],
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def observed(golden_dir):
    return build_golden(golden_dir)


@pytest.mark.parametrize("name", [n for n, _ in GEN + CONSTRUCT + MUTANTS + BAD_INPUT])
def test_golden_file_and_report(observed, name):
    assert observed[name] == GOLDEN[name]


@pytest.mark.parametrize("check", sorted(ROUNDTRIP))
def test_golden_roundtrip_laws(observed, check):
    assert observed[check] == ROUNDTRIP[check]


@pytest.mark.parametrize("name", [n for n, _ in GEN + CONSTRUCT])
def test_golden_report_leaves_the_shared_identities_as_they_are(observed, golden_dir, name):
    # ``obj.id(k)`` is one map per object and power, read by every law that
    # needs it: no law may write into it
    sf = load(os.path.join(golden_dir, name + ".txt"))
    objs = storage._objects(storage._schema(sf.kind).parts, sf.structure).values()
    ids = [(obj, k, obj.id(k)) for obj in objs for k in (1, 2, 3)]
    structure_report(sf)
    for obj, k, m in ids:
        n = obj.dim ** k
        assert obj.id(k) is m and m.factors is None
        assert m.rows == tuple(range(n)) and list(m.cols) == [{i: 1} for i in range(n)]


# -- checkers the CLI never runs ---------------------------------------------
# ``structure_report`` runs none of these checkers (or runs them only under a
# gate), so the file pins above cannot see a change to their law lines.  The
# cases below reach every skip reason the checkers can give.


def _c2_signed_flip_post_hopf():
    """C2 braided by the flip with the off-diagonal entries negated: it fixes
    ``g (x) g``, so the carrier counts as cocommutative, but it is not the
    flip."""
    w = trivial_post_hopf(group_algebra(cyclic(2), QQ))
    cols = [{0: 1}, {2: -1}, {1: -1}, {3: 1}]
    braid = LinMap.from_cols(QQ, shape(2, 2), shape(2, 2), cols)
    return replace(w, hopf=replace(w.hopf, obj=BraidedObject(QQ, 2, braid)))


def _c2_doubling_post_hopf():
    """Every element acts on C2 as 2: the curried action is invertible, but
    its inverse halves, so the paired inverse is no coalgebra morphism."""
    h = group_algebra(cyclic(2), QQ)
    act = tensor(h.eps, h.obj.id(1))
    two = tuple({i: 2 * v for i, v in col.items()} for col in act.cols)
    return PostHopfData(hopf=h, action=LinMap(QQ, act.dom, act.cod, two),
                        cocycle=h.obj.id(1))


def _c2_zero_cocycle_post_hopf():
    h = group_algebra(cyclic(2), QQ)
    return replace(trivial_post_hopf(h), cocycle=zero_map(QQ, shape(2), shape(2)))


def checker_reports():
    """``{case/checker: law lines}`` for every pinned checker run."""
    s3 = group_algebra(symmetric3(), QQ)
    h4 = sweedler_h4(QQ)
    c2 = group_algebra(cyclic(2), QQ)
    trusses = suite_trusses()[::3]
    post_hopf = [
        ("trivial-s3", trivial_post_hopf(s3)),
        ("conjugation-s3", conjugation_post_hopf(s3)),
        ("trivial-h4", trivial_post_hopf(h4)),
        ("c2-negated-flip", negated_flip_c2_post_hopf()),
        ("c2-signed-flip", _c2_signed_flip_post_hopf()),
        ("c2-zero-action", zero_action_c2_post_hopf()),
        ("c2-doubling-action", _c2_doubling_post_hopf()),
        ("c2-zero-cocycle", _c2_zero_cocycle_post_hopf()),
    ] + [(f"G({name})", post_hopf_from_truss(t)) for name, t in trusses]
    operators = [("c2-mixed-braiding", mixed_braiding_c2_rota_baxter())] + [
        (f"Lambda({name})", rota_baxter_from_truss(t)) for name, t in trusses]
    out = {}
    for name, w in post_hopf:
        for check in (check_post_hopf, check_twisted, lemma_suite,
                      derived_antipode_suite):
            out[f"{name}/{check.__name__}"] = check(w).lines()
    for name, h in (("s3", s3), ("h4", h4), ("c2", c2)):
        out[f"{name}/antipode_property_check"] = antipode_property_check(h).lines()
    for name, w in operators:
        for check in (check_rota_baxter, check_twisted_operator,
                      derived_product_check):
            out[f"{name}/{check.__name__}"] = check(w).lines()
    return out


# case/checker -> sha256 of the report's law lines, joined by newlines;
# recorded before the gated laws became rows
CHECKERS = {
    'trivial-s3/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'trivial-s3/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'trivial-s3/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'trivial-s3/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'conjugation-s3/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'conjugation-s3/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'conjugation-s3/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'conjugation-s3/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'trivial-h4/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'trivial-h4/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'trivial-h4/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'trivial-h4/derived_antipode_suite':
        '78197b1b6e8b74d07b36bf4feb030e262f99d987a40b15691a6d626f9871b422',
    'c2-negated-flip/check_post_hopf':
        '8b95a57fa1adf2dcedfbb79921155555e3c345d5406c916134bb23662880c096',
    'c2-negated-flip/check_twisted':
        '498f5df0962a716257d7eba8a49a93543b31957121f90353ae20e9644cdd356f',
    'c2-negated-flip/lemma_suite':
        'bb9720b485493d6b2c83e6407585a950f43baadcd560f89a6abe66d6f917e92f',
    'c2-negated-flip/derived_antipode_suite':
        '4430bcfcf9c010f26a0979a943120d386cc92a15332db3f09452214ba340652f',
    'c2-signed-flip/check_post_hopf':
        '8d63650dd024c10ffbb6491bdca91daf2b9b5565d2bfa56f070dc1e397d01ce4',
    'c2-signed-flip/check_twisted':
        '498f5df0962a716257d7eba8a49a93543b31957121f90353ae20e9644cdd356f',
    'c2-signed-flip/lemma_suite':
        'bb9720b485493d6b2c83e6407585a950f43baadcd560f89a6abe66d6f917e92f',
    'c2-signed-flip/derived_antipode_suite':
        '882922d507d25d73d1cf234f9b07e041f99d03930b0b8013af70fba49aa79a17',
    'c2-zero-action/check_post_hopf':
        'c1f8c4d8c87e36cea9947c2c063c55d993f2e3724aa6eb025fc8245eaac7922b',
    'c2-zero-action/check_twisted':
        'fbc05008ef6276850ab828e19d275677c6b9de24687e3e6191cf28f58630ef00',
    'c2-zero-action/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'c2-zero-action/derived_antipode_suite':
        'd1b6b445d3467afd990faf9e07c306a5b8f0ad2ba07278d3f3b9519bb4a0d925',
    'c2-doubling-action/check_post_hopf':
        '3c9bfa0463afb0691e8588230e935c528a0072eed6944f0cca7cbd56d552d4f0',
    'c2-doubling-action/check_twisted':
        '62fabfffb407c468a02cd097f015836893189e4bb9d9b226484f452c6a0c99ac',
    'c2-doubling-action/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'c2-doubling-action/derived_antipode_suite':
        'f43634f0d8729acae3d2fa5d823b94dd81ec81ddb6d785360cc35fefca4e8ccc',
    'c2-zero-cocycle/check_post_hopf':
        '34d23807fe9a87c8cad018388b955fbf0a973c4defd9320efec8e3299a38373f',
    'c2-zero-cocycle/check_twisted':
        '6d744f71007cce66d5d720d83361ddc83208aef13dc9c71bb99ae883149842e4',
    'c2-zero-cocycle/lemma_suite':
        'd09372a3bdc487b9e9a16a1312063a4f27f142e6bc7c414cdf3096483e7cb9f0',
    'c2-zero-cocycle/derived_antipode_suite':
        '0d8f5a688f9b12af673c7200fe96ff596bbe7a4dcd954eef221488494b4a3949',
    'G(C1/(0,))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C1/(0,))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C1/(0,))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C1/(0,))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(C3/(0, 0, 0))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C3/(0, 0, 0))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C3/(0, 0, 0))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C3/(0, 0, 0))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(C4/(0, 1, 2, 3))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C4/(0, 1, 2, 3))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C4/(0, 1, 2, 3))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C4/(0, 1, 2, 3))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(C6/(0, 0, 0, 0, 0, 0))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C6/(0, 0, 0, 0, 0, 0))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C6/(0, 0, 0, 0, 0, 0))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C6/(0, 0, 0, 0, 0, 0))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(C6/(0, 4, 2, 0, 4, 2))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C6/(0, 4, 2, 0, 4, 2))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C6/(0, 4, 2, 0, 4, 2))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C6/(0, 4, 2, 0, 4, 2))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(C8/(0, 0, 0, 0, 0, 0, 0, 0))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(C8/(0, 0, 0, 0, 0, 0, 0, 0))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(C8/(0, 0, 0, 0, 0, 0, 0, 0))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(C8/(0, 0, 0, 0, 0, 0, 0, 0))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(S3/(0, 1, 1, 0, 0, 1))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(S3/(0, 1, 1, 0, 0, 1))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(S3/(0, 1, 1, 0, 0, 1))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(S3/(0, 1, 1, 0, 0, 1))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(S3/(0, 5, 5, 0, 0, 5))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(S3/(0, 5, 5, 0, 0, 5))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(S3/(0, 5, 5, 0, 0, 5))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(S3/(0, 5, 5, 0, 0, 5))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(D4/(0, 0, 0, 0, 5, 5, 5, 5))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(D4/(0, 0, 0, 0, 5, 5, 5, 5))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(D4/(0, 0, 0, 0, 5, 5, 5, 5))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(D4/(0, 0, 0, 0, 5, 5, 5, 5))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(D4/(0, 1, 2, 3, 4, 5, 6, 7))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(D4/(0, 1, 2, 3, 4, 5, 6, 7))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(D4/(0, 1, 2, 3, 4, 5, 6, 7))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(D4/(0, 1, 2, 3, 4, 5, 6, 7))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(D4/(0, 6, 0, 6, 6, 0, 6, 0))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(D4/(0, 6, 0, 6, 6, 0, 6, 0))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(D4/(0, 6, 0, 6, 6, 0, 6, 0))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(D4/(0, 6, 0, 6, 6, 0, 6, 0))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    'G(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/check_post_hopf':
        'a75d009f327dbda1e48edc208cfc4417619f63f9b3d86ffc6a324231f69221a6',
    'G(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/check_twisted':
        '729fb4f50e4bcd71b66bd14b7413499817886d06b51945d00e7d4cd3d37950b1',
    'G(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/lemma_suite':
        '7785263f926bee3df2ff7a120de915082dbc8d86a3527f586c1d3b63c6bc3b7e',
    'G(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/derived_antipode_suite':
        'b83a9f1a6178114de5725b1b57aa4bd5417fadcea4de0236154c0924826e43de',
    's3/antipode_property_check':
        '4ff181d0e104b092ede1656628521cbe14e521d32ab1c3528525c52f9502e3d5',
    'h4/antipode_property_check':
        'ba06a484dc0465f7f41326e555e0066548cdb11ca2a6de855611cf6b2f252222',
    'c2/antipode_property_check':
        '4ff181d0e104b092ede1656628521cbe14e521d32ab1c3528525c52f9502e3d5',
    'c2-mixed-braiding/check_rota_baxter':
        'ca639b8656d616856278628a02bc7c8acc6054499c1dda0d001e6bc78b3d6952',
    'c2-mixed-braiding/check_twisted_operator':
        '5923adf7283d0b707cc9b5e57529451b9da99947c74ec6452a1ccd3e8b29acb0',
    'c2-mixed-braiding/derived_product_check':
        'bde28052c7f3c6531e5b37f5433d0300338ee0296d22221df9284706ba29ae33',
    'Lambda(C1/(0,))/check_rota_baxter':
        '455a3ca3b062b128fd58ceb82cb26657230670d30090aa8d02481aea4777fd92',
    'Lambda(C1/(0,))/check_twisted_operator':
        '5923adf7283d0b707cc9b5e57529451b9da99947c74ec6452a1ccd3e8b29acb0',
    'Lambda(C1/(0,))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(C3/(0, 0, 0))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(C3/(0, 0, 0))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(C3/(0, 0, 0))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(C4/(0, 1, 2, 3))/check_rota_baxter':
        '455a3ca3b062b128fd58ceb82cb26657230670d30090aa8d02481aea4777fd92',
    'Lambda(C4/(0, 1, 2, 3))/check_twisted_operator':
        '5923adf7283d0b707cc9b5e57529451b9da99947c74ec6452a1ccd3e8b29acb0',
    'Lambda(C4/(0, 1, 2, 3))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(C6/(0, 0, 0, 0, 0, 0))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(C6/(0, 0, 0, 0, 0, 0))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(C6/(0, 0, 0, 0, 0, 0))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(C6/(0, 4, 2, 0, 4, 2))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(C6/(0, 4, 2, 0, 4, 2))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(C6/(0, 4, 2, 0, 4, 2))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(C8/(0, 0, 0, 0, 0, 0, 0, 0))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(C8/(0, 0, 0, 0, 0, 0, 0, 0))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(C8/(0, 0, 0, 0, 0, 0, 0, 0))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(S3/(0, 1, 1, 0, 0, 1))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(S3/(0, 1, 1, 0, 0, 1))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(S3/(0, 1, 1, 0, 0, 1))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(S3/(0, 5, 5, 0, 0, 5))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(S3/(0, 5, 5, 0, 0, 5))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(S3/(0, 5, 5, 0, 0, 5))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(D4/(0, 0, 0, 0, 5, 5, 5, 5))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(D4/(0, 0, 0, 0, 5, 5, 5, 5))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(D4/(0, 0, 0, 0, 5, 5, 5, 5))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(D4/(0, 1, 2, 3, 4, 5, 6, 7))/check_rota_baxter':
        '455a3ca3b062b128fd58ceb82cb26657230670d30090aa8d02481aea4777fd92',
    'Lambda(D4/(0, 1, 2, 3, 4, 5, 6, 7))/check_twisted_operator':
        '5923adf7283d0b707cc9b5e57529451b9da99947c74ec6452a1ccd3e8b29acb0',
    'Lambda(D4/(0, 1, 2, 3, 4, 5, 6, 7))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(D4/(0, 6, 0, 6, 6, 0, 6, 0))/check_rota_baxter':
        '8b3530f1a9af4c836b22cba622767eb0e7aeb82349243e498fc20e715ad94a88',
    'Lambda(D4/(0, 6, 0, 6, 6, 0, 6, 0))/check_twisted_operator':
        '43ed449e92ab1b8a016e46092a8ae4cdb1cecf636cfb9eafcaae93fa747007b1',
    'Lambda(D4/(0, 6, 0, 6, 6, 0, 6, 0))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
    'Lambda(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/check_rota_baxter':
        '455a3ca3b062b128fd58ceb82cb26657230670d30090aa8d02481aea4777fd92',
    'Lambda(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/check_twisted_operator':
        '5923adf7283d0b707cc9b5e57529451b9da99947c74ec6452a1ccd3e8b29acb0',
    'Lambda(Q8/(0, 1, 2, 3, 4, 5, 6, 7))/derived_product_check':
        'b76784be79ff8523eeb0e20a2766e758113309007e06b0ab4719def7b9e61575',
}

# every reason the pinned checkers give for a skip
SKIP_REASONS = {
    'class condition fails at the operator action',
    'cocycle is not unital',
    'derived antipode needs a cocommutative carrier',
    'derived antipode needs the flip braiding',
    'needs a braiding between target and carrier',
    'needs a unital target',
    'needs flip braiding',
    'neither commutative nor cocommutative',
    'no solution of f * x = unit (not convolution invertible)',
    'paired inverse action is not a coalgebra morphism',
    'twisted axioms not established',
}


@pytest.fixture(scope="module")
def checker_lines():
    return checker_reports()


def test_golden_checker_laws(checker_lines):
    assert {name: _sha("\n".join(lines))
            for name, lines in checker_lines.items()} == CHECKERS


def test_golden_checkers_reach_every_skip_reason(checker_lines):
    reasons = {line.split(" (", 1)[1][:-1]
               for lines in checker_lines.values()
               for line in lines if line.startswith("skip")}
    assert reasons == SKIP_REASONS


def _s3_truss(endo):
    g = symmetric3()
    q = linearize_endo(g, named_endo(g, endo), QQ)
    return truss_from_idempotent(group_algebra(g, QQ), q)


def _bumped(m):
    """``m`` with one added to its entry (0, 0)."""
    return m.with_entry(0, 0, QQ.add(m.entry(0, 0), QQ.one))


def _raised_report(check, error):
    """The report carried by the ``error`` that ``check()`` raises."""
    with pytest.raises(error) as caught:
        check()
    return caught.value.report


def morphism_reports():
    """``{case/checker: law lines}`` for the morphism checkers, each on a
    passing and on a failing instance.  The failing adjunction cases raise;
    their lines are those of the report the error carries."""
    ta, tb = _s3_truss("sign-retraction"), _s3_truss("identity")
    wa, wb = rota_baxter_from_truss(ta), rota_baxter_from_truss(tb)
    i6 = identity(QQ, shape(6))
    bad = _bumped(ta.cocycle)
    # an operator bumped at (0, 0), its action undoing the bump: the same
    # truss, but the operator no longer respects the target
    op = _bumped(wa.operator)
    wc = replace(wa, operator=op, action=wa.action @ tensor(invert(op), wa.obj.id(1)))
    reports = {
        "id-a-a/check_truss_morphism": check_truss_morphism(i6, ta, ta),
        "id-a-b/check_truss_morphism": check_truss_morphism(i6, ta, tb),
        "id-a-bumped/check_truss_morphism":
            check_truss_morphism(i6, ta, replace(ta, cocycle=bad)),
        "id-a-a/check_rb_morphism": check_rb_morphism((i6, i6), wa, wa),
        "id-a-b/check_rb_morphism": check_rb_morphism((i6, i6), wa, wb),
        "forward-id/adjunction_check": adjunction_check(ta, wa, f=i6),
        "backward-id/adjunction_check": adjunction_check(ta, wa, pair=(i6, wa.operator)),
        "forward-bumped/adjunction_check": _raised_report(
            lambda: adjunction_check(ta, wa, f=bad), NotATrussMorphism),
        "backward-bumped/adjunction_check": _raised_report(
            lambda: adjunction_check(ta, wa, pair=(bad, bad)), NotAnRBMorphism),
        "a/rb_equivalence_check": rb_equivalence_check(wa),
        "bumped-operator/rb_equivalence_check": rb_equivalence_check(wc),
    }
    return {name: rep.lines() for name, rep in reports.items()}


# case/checker -> sha256 of the report's law lines, joined by newlines;
# recorded before every law became a row
MORPHISM_CHECKERS = {
    'id-a-a/check_truss_morphism':
        '1f3ab3925c9698d484d1c9227814b9c17ffbe40981cc78555f26adc0c8feea03',
    'id-a-b/check_truss_morphism':
        'aedb97ec5bbcf42035b153fc54cc97e6d2035ae99c66ea2601774cd248980b27',
    'id-a-bumped/check_truss_morphism':
        'f9b12bc58245a2f7dd08d3305b75f6ff59cf0168965a062e42793f519b8853fa',
    'id-a-a/check_rb_morphism':
        'c8f682be2f46be4645210e05f743ea2ad21c2f1d6d7350ceb3cfe2f019edb0fa',
    'id-a-b/check_rb_morphism':
        '05236c3a9708e37fd843bf9182803c147723c1cd9d630dc0a96253b1debfd8bf',
    'forward-id/adjunction_check':
        '97a8af6ea995fff7594a27f6234b86651bab9be40054dab78748b6770cc6a9c0',
    'backward-id/adjunction_check':
        '52da7961d504abff09cc2f6aa9a17cb08b23664d6ba8efa49ab248e70be5ed37',
    'forward-bumped/adjunction_check':
        'adb9de21cdc9d18f6567de8c5c8ae27dfcbbc8b3d9ade97d1e5660bd3442801a',
    'backward-bumped/adjunction_check':
        '7c1dfbbaa3de9f2060d5400b17fa51d807230059442ec274a869ff836d437943',
    'a/rb_equivalence_check':
        '32e0f11120633107fc5b4b3fd09f7759ad770ca89749162082950929d0c0a5b6',
    'bumped-operator/rb_equivalence_check':
        '8e2c797e8489a771979aec23e7ac293c30e5eddc3dd2e2a4d516370b0465acc7',
}


def test_golden_morphism_checker_laws():
    assert {name: _sha("\n".join(lines))
            for name, lines in morphism_reports().items()} == MORPHISM_CHECKERS


# -- the dict-path twin ----------------------------------------------------------
# ``LinMap(...)`` keeps dict columns as it is given them, so a structure whose
# maps are handed to it column for column has every law read them through the
# kernel's dict path, the oldest path and the reference for the faster ones.
# Its report must be the structure's own, law for law and witness for witness.


def _twin(m):
    """``m`` held as the dict columns ``LinMap(...)`` keeps."""
    twin = LinMap(m.field, m.dom, m.cod, m.cols)
    assert not twin.monomial
    return twin


def _twinned(sf, paths=None):
    """``sf`` with the maps at ``paths`` twinned; for ``None``, every map and
    the braid of every object that is not flip-braided."""
    schema = storage._schema(sf.kind)
    objs = {letter: obj if obj.is_flip or paths is not None
            else BraidedObject(obj.field, obj.dim, braid=_twin(obj.braid))
            for letter, obj in storage._objects(schema.parts, sf.structure).items()}
    maps = {}
    for row in schema.rows:
        m = storage._attr(sf.structure, row.path)
        maps[row.path] = m if m is None or paths is not None and row.path not in paths else _twin(m)
    return storage.StructureFile(sf.kind, storage._build(schema.parts, objs, maps))


def _law_results(sf):
    return [(r.law, r.passed, r.skipped, r.witness) for r in structure_report(sf).results]


def _twin_inputs(fld):
    """The S3 and D4 trusses of the first three idempotents, a copy of each
    with one entry of ``mu2`` bumped, their ``wtph`` and ``wtrb`` images, and
    the two C2 structures braided by minus the flip."""
    for gname in ("S3", "D4"):
        g = group_by_name(gname)
        h = group_algebra(g, fld)
        for k in range(3):
            t = truss_from_idempotent(h, linearize_endo(g, named_endo(g, f"idx:{k}"), fld))
            mu2 = t.mu2.with_entry(0, 0, fld.add(t.mu2.entry(0, 0), fld.one))
            yield f"{gname}/idx:{k}", storage.StructureFile("truss", t)
            yield f"{gname}/idx:{k}/bad-mu2", storage.StructureFile("truss", replace(t, mu2=mu2))
            yield f"G({gname}/idx:{k})", storage.StructureFile("wtph", post_hopf_from_truss(t))
            yield f"Lambda({gname}/idx:{k})", storage.StructureFile("wtrb", rota_baxter_from_truss(t))
    yield "c2-negated-flip", storage.StructureFile("wtph", negated_flip_c2_post_hopf(fld))
    yield "c2-mixed-braiding", storage.StructureFile("wtrb", mixed_braiding_c2_rota_baxter(fld))


def test_every_structure_reports_what_its_dict_path_twin_reports(observed, golden_dir):
    cases = [(name, load(os.path.join(golden_dir, name + ".txt")))
             for name, _ in GEN + CONSTRUCT + MUTANTS]
    for fld in (QQ, Field.prime(5)):
        cases.extend(_twin_inputs(fld))
    assert len(cases) == 20 + 2 * 26
    failed = 0
    for name, sf in cases:
        want = _law_results(sf)
        assert _law_results(_twinned(sf)) == want, name
        failed += not all(passed for _, passed, _, _ in want)
    # the golden mutants, the bumped mu2s, and the C2 structures, whose maps
    # are not natural for minus the flip
    assert failed == 4 + 2 * (6 + 2)
    # one map at a time, so a dict-held map meets monomial ones in every law
    for fld in (QQ, Field.prime(5)):
        g = group_by_name("D4")
        t = truss_from_idempotent(group_algebra(g, fld),
                                  linearize_endo(g, named_endo(g, "idx:3"), fld))
        sf = storage.StructureFile("truss", t)
        want = _law_results(sf)
        for row in storage._schema("truss").rows:
            assert _law_results(_twinned(sf, {row.path})) == want, row.path
