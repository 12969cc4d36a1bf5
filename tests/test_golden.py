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

import pytest

from hopfkit.cli import main
from hopfkit.post_hopf import roundtrip_check, truss_roundtrip_check
from hopfkit.rota_baxter import truss_equivalence_check
from hopfkit.storage import load

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
def observed(tmp_path_factory):
    return build_golden(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", [n for n, _ in GEN + CONSTRUCT + MUTANTS + BAD_INPUT])
def test_golden_file_and_report(observed, name):
    assert observed[name] == GOLDEN[name]


@pytest.mark.parametrize("check", sorted(ROUNDTRIP))
def test_golden_roundtrip_laws(observed, check):
    assert observed[check] == ROUNDTRIP[check]
