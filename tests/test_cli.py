"""Command-line interface: exit codes, output formats, and file workflows."""
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit import fields, linmap, structures
from hopfkit.cli import main, star_verdict, structure_report
from hopfkit.errors import InputError
from hopfkit.factories import group_algebra, linearize_endo, named_endo
from hopfkit.fields import QQ
from hopfkit.groups import cyclic
from hopfkit.linmap import shape, zero_map
from hopfkit.post_hopf import check_post_hopf, check_twisted, post_hopf_from_truss
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit.storage import StructureFile, braid_generators, dumps, save
from hopfkit.structures import BraidedObject, check_braided_object

from helpers import (
    HEADER_INTEGER_FORMS,
    c2_identity_truss,
    mixed_braiding_c2_rota_baxter,
    negated_flip,
    negated_flip_c2_post_hopf,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, name, *argv):
    path = str(tmp_path / name)
    code, out, err = run(capsys, *argv, "-o", path)
    assert code == 0, err
    assert out.startswith("wrote ")
    return path


# ---------------------------------------------------------------------------
# check / report
# ---------------------------------------------------------------------------

def test_check_valid_hopf(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "kind: hopf" in out
    assert "field: Q" in out
    assert "dim: 2" in out
    assert "all pass" in out
    assert "FAIL" not in out


def test_check_machine_report(capsys, tmp_path):
    path = gen(capsys, tmp_path, "s3.txt",
               "gen", "truss-q", "--group", "S3", "--endo", "sign-retraction")
    code, out, _ = run(capsys, "check", path, "--report", "machine", "--star")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "truss"
    assert doc["dim"] == 6
    assert doc["field"] == "Q"
    assert doc["passed"] is True
    assert doc["star"] is True
    assert all(law["status"] == "pass" for law in doc["laws"]
               if law["status"] != "skip")
    assert any(law["law"] == "truss.distributivity" for law in doc["laws"])


def test_check_star_text(capsys, tmp_path):
    path = gen(capsys, tmp_path, "s3.txt",
               "gen", "truss-q", "--group", "S3", "--endo", "identity")
    code, out, _ = run(capsys, "check", path, "--star")
    assert code == 0
    assert "star-condition: true" in out


def test_star_on_hopf_is_input_error(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    code, _, err = run(capsys, "check", path, "--star")
    assert code == 2
    assert err.startswith("error:")


def test_check_kind_mismatch(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    code, _, err = run(capsys, "check", path, "--kind", "truss")
    assert code == 2
    assert err.startswith("error:")


def test_check_corrupted_file(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    with open(path) as fh:
        text = fh.read()
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write(text.replace("kind: hopf", "kind: mystery"))
    code, _, err = run(capsys, "check", bad)
    assert code == 2
    assert err.startswith("error:")


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_check_law_violation_exits_one(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    with open(path) as fh:
        text = fh.read()
    # bump one product coefficient: g*g picks up an extra copy of g
    assert "map mu: 2x4\n1 0 0 1\n0 1 1 0" in text
    broken = text.replace("map mu: 2x4\n1 0 0 1\n0 1 1 0",
                          "map mu: 2x4\n1 0 0 1\n0 1 1 1")
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write(broken)
    code, out, _ = run(capsys, "check", bad)
    assert code == 1
    assert "FAIL" in out
    assert "witness=" in out
    assert "laws checked" in out


def test_check_non_flip_post_hopf_lists_laws(capsys, tmp_path):
    path = str(tmp_path / "w.txt")
    save(StructureFile("wtph", negated_flip_c2_post_hopf()), path)
    code, out, err = run(capsys, "check", path)
    assert code in (0, 1)
    assert "failed:" not in err
    assert "skip  twisted.curried-action-invertible (needs flip braiding)" in out
    assert "laws checked" in out


def _never_called(n):
    raise AssertionError("primality of a characteristic beyond the bound was tested")


@pytest.mark.parametrize("p, code", [
    ("2147483659", 2),                # the first prime above 2^31
    ("100000000000000000000117", 2),  # a 24-digit prime: hours of trial division
    ("2147483647", 0),                # 2^31 - 1, the largest allowed prime
])
def test_check_bounds_the_field_characteristic(capsys, tmp_path, monkeypatch, p, code):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("field: Q", f"field: GF:{p}"))
    if code == 2:
        monkeypatch.setattr(fields, "_is_prime", _never_called)
    assert run(capsys, "check", path)[0] == code


def _c2_file_with(capsys, tmp_path, old, new):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))
    return path


def test_check_rejects_an_exponent_scalar_quickly(capsys, tmp_path):
    # Fraction() reads this token as a two-million-digit integer
    path = _c2_file_with(capsys, tmp_path, "map delta: 4x2\n1 0\n0 0",
                         "map delta: 4x2\n1 0\n1e2000000 0")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "1e2000000" in err
    assert time.perf_counter() - t0 < 5


def test_check_error_on_a_huge_scalar_is_bounded(capsys, tmp_path):
    path = _c2_file_with(capsys, tmp_path, "map delta: 4x2\n1 0\n0 0",
                         "map delta: 4x2\n1 0\n" + "9" * 1_000_000 + " 0")
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert len(err.encode()) < 300
    assert "(1000000 characters)" in err


BIG = 100_000
C2_HOPF = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
# files rejected on a token of BIG characters, each quoted in the message
HOSTILE = {
    "header-line": "x" * BIG + "\n" + C2_HOPF,
    "duplicate-header": f"{'k' * BIG}: 1\n{'k' * BIG}: 1\n" + C2_HOPF,
    "format-version": C2_HOPF.replace("format-version: 1",
                                      "format-version: 2" + "0" * 4000),
    "kind": C2_HOPF.replace("kind: hopf", "kind: " + "h" * BIG),
    "field": C2_HOPF.replace("field: Q", "field: " + "Q" * BIG),
    "field-prime": C2_HOPF.replace("field: Q", "field: GF:" + "5" * BIG),
    "field-characteristic": C2_HOPF.replace("field: Q", "field: GF:1" + "0" * 4000),
    "dim": C2_HOPF.replace("dim: 2", "dim: " + "2" * BIG),
    "braiding": C2_HOPF.replace("braiding: flip", "braiding: " + "f" * BIG),
    "map-size": C2_HOPF.replace("map eta: 2x1", "map eta: 2x" + "1" * BIG),
    "map-size-without-x": C2_HOPF.replace("map eta: 2x1", "map eta: " + "2" * BIG),
    "map-name": C2_HOPF.replace("map eta: 2x1", f"map {'e' * BIG}: 2"),
    "map-name-rows": C2_HOPF.replace("map eta: 2x1", f"map {'e' * BIG}: 3x1"),
    "duplicate-map": C2_HOPF + f"\nmap {'d' * BIG}: 1x1\n1\nmap {'d' * BIG}: 1x1\n1\n",
    "stray-map": C2_HOPF + f"\nmap {'s' * BIG}: 1x1\n1\n",
    "stray-maps": C2_HOPF + "".join(f"\nmap s{i}: 1x1\n1\n" for i in range(BIG // 10)),
}
HOSTILE.update((f"int:{ascii(new)}", C2_HOPF.replace(old, new))
               for old, new in HEADER_INTEGER_FORMS)
# files rejected on a header integer of 4300 digits, the most the parser takes
HUGE = "9" * 4300
HUGE_DIM = C2_HOPF.replace("dim: 2", f"dim: {HUGE}")
HOSTILE.update({
    "basis-for-dim": HUGE_DIM.replace("braiding: flip", "braiding: flip\nbasis: a b"),
    "rows-file-ended": C2_HOPF + f"\nmap extra: {HUGE}x1\n1\n",
    "row-entries": C2_HOPF.replace("map eta: 2x1", f"map eta: 2x{HUGE}"),
    "declared-size": HUGE_DIM,
    # the braiding's role needs dim^2 rows, past Python's int -> str cap
    "declared-size-squared": HUGE_DIM.replace("braiding: flip", "braiding: explicit")
    + "\nmap braiding: 1x1\n1\n",
})


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_check_error_on_a_hostile_file_is_bounded(capsys, tmp_path, text):
    path = str(tmp_path / "hostile.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert err.startswith("error: ") and len(err.encode()) < 300


# files that are not UTF-8, with the offset of their first invalid byte
DIM_AT = C2_HOPF.index("dim: 2") + len("dim: ")
NOT_UTF8 = {
    "utf16-bom": (b"\xff\xfe" + C2_HOPF.encode(), 0),
    "cut-sequence": (C2_HOPF.encode().replace(b"dim: 2", b"dim: \xe2\x82"), DIM_AT),
    "late": (b"x" * BIG + b"\x80", BIG),
}


@pytest.mark.parametrize("command", [
    ["check"], ["search", "rb-operators", "--field", "GF:5", "--file"]],
    ids=["check", "search"])
@pytest.mark.parametrize("data, offset", NOT_UTF8.values(), ids=NOT_UTF8.keys())
def test_check_error_on_a_non_utf8_file_is_bounded(capsys, tmp_path, command,
                                                    data, offset):
    path = tmp_path / "bytes.txt"
    path.write_bytes(data)
    code, _, err = run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("error: ") and len(err.encode()) < 300
    assert f"offset {offset}" in err


def test_check_prints_witnesses_past_the_int_str_limit(capsys, tmp_path):
    big = "9" * 4000  # accepted by the parser; its square has 8000 digits
    path = _c2_file_with(capsys, tmp_path, "map eta: 2x1\n1\n",
                         f"map eta: 2x1\n{big}\n")
    square = "9" * 3999 + "8" + "0" * 3999 + "1"  # (10^4000 - 1)^2
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "check", path)
    assert code == 1, err
    assert (f"FAIL  bialgebra.delta-unital  witness=entry (0,0): {big} != {square}"
            in out.split("\n"))
    assert "laws checked" in out
    code, out, err = run(capsys, "check", path, "--report", "machine")
    assert code == 1, err
    laws = {r["law"]: r for r in json.loads(out)["laws"]}
    assert laws["bialgebra.delta-unital"]["witness"] == {
        "row": 0, "col": 0, "lhs": big, "rhs": square}
    assert sys.get_int_max_str_digits() == limit


def test_check_wtrb_without_a_cross_braiding_lists_laws(capsys, tmp_path):
    path = str(tmp_path / "w.txt")
    save(StructureFile("wtrb", mixed_braiding_c2_rota_baxter()), path)
    code, out, err = run(capsys, "check", path)
    assert code in (0, 1)
    assert "failed:" not in err
    reason = "(needs a braiding between target and carrier)"
    assert f"skip  module.module-algebra.product-compat {reason}" in out
    assert f"skip  module.module-coalgebra.comul-compat {reason}" in out
    assert "laws checked" in out


def _braided(kind, carrier, target=None):
    """A valid C2 structure of ``kind`` with its carrier (and, for wtrb, its
    target) object braided by the flip or by minus the flip."""
    def obj(braiding):
        return BraidedObject(QQ, 2) if braiding == "flip" else negated_flip(QQ, 2)

    t = c2_identity_truss()
    if kind == "hopf":
        return replace(t.hopf(), obj=obj(carrier))
    if kind == "truss":
        return replace(t, obj=obj(carrier))
    w = post_hopf_from_truss(t) if kind == "wtph" else rota_baxter_from_truss(t)
    w = replace(w, hopf=replace(w.hopf, obj=obj(carrier)))
    if kind == "wtrb":
        w = replace(w, target=replace(w.target, obj=obj(target)))
    return w


BRAIDINGS = [("hopf", c, None) for c in ("flip", "negflip")] \
    + [("truss", c, None) for c in ("flip", "negflip")] \
    + [("wtph", c, None) for c in ("flip", "negflip")] \
    + [("wtrb", c, b) for c in ("flip", "negflip") for b in ("flip", "negflip")]


@pytest.mark.parametrize("kind, carrier, target", BRAIDINGS,
                         ids=["-".join(filter(None, case)) for case in BRAIDINGS])
def test_structure_report_never_aborts(kind, carrier, target):
    # every law of the kind is listed whatever the braidings; the ones whose
    # hypothesis fails are skipped, not dropped
    sf = StructureFile(kind, _braided(kind, carrier, target))
    rep = structure_report(sf)
    flip_rep = structure_report(
        StructureFile(kind, _braided(kind, "flip", target and "flip")))
    assert [r.law for r in rep.results] == [r.law for r in flip_rep.results]
    assert flip_rep.passed and not any(r.skipped for r in flip_rep.results)
    # the class verdict follows the carrier braiding alone
    if kind == "hopf":
        with pytest.raises(InputError):
            star_verdict(sf)
    else:
        assert star_verdict(sf) is (carrier == "flip")


@pytest.mark.parametrize("unital", [True, False], ids=["unital", "zero-cocycle"])
def test_wtph_report_compares_the_cocycle_on_the_unit_once(monkeypatch, unital):
    w = post_hopf_from_truss(c2_identity_truss())
    if not unital:
        w = replace(w, cocycle=zero_map(QQ, shape(2), shape(2)))
    eta = w.hopf.eta
    against_eta = []

    def spy(f, g):
        if g is eta:
            against_eta.append(f)
        return real(f, g)

    real = linmap.first_mismatch
    monkeypatch.setattr(linmap, "first_mismatch", spy)
    monkeypatch.setattr(structures, "first_mismatch", spy)
    sf = StructureFile("wtph", w)
    rep = structure_report(sf)
    monkeypatch.undo()
    assert len(against_eta) == 1 and against_eta[0] == w.cocycle @ eta
    # the twisted laws are listed exactly when the cocycle fixes the unit
    expected = (check_braided_object(w.obj, braid_generators(sf, "n")).results
                + check_post_hopf(w).results
                + (check_twisted(w).results if unital else []))
    assert [r.line() for r in rep.results] == [r.line() for r in expected]


def _c3_truss_text():
    g = cyclic(3)
    q = linearize_endo(g, named_endo(g, "trivial"), QQ)
    t = truss_from_idempotent(group_algebra(g, QQ), q)
    return dumps(StructureFile("truss", t, basis=list(g.names)))


C3_TRUSS = _c3_truss_text()
# replacement tokens and header values: all small, some invalid
SMALL = ["0", "1", "2", "3", "-1", "1/2", "2/0", "x", ":", "map", "3x3", "1x0",
         "Q", "GF:2", "GF:4", "GF:5", "hopf", "truss", "wtph", "wtrb",
         "flip", "explicit"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_exit_code_on_mutated_file(data):
    lines = C3_TRUSS.split("\n")
    n_headers = lines.index("")
    op = data.draw(st.sampled_from(["token", "drop", "header"]))
    if op == "header":
        at = data.draw(st.integers(0, n_headers - 1))
        key = lines[at].partition(":")[0]
        lines[at] = f"{key}: {data.draw(st.sampled_from(SMALL))}"
    else:
        at = data.draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[at]
        else:
            toks = lines[at].split() or [""]
            toks[data.draw(st.integers(0, len(toks) - 1))] = \
                data.draw(st.sampled_from(SMALL))
            lines[at] = " ".join(toks)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", path])
    assert code in (0, 1, 2)


def test_report_has_timing(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    assert "time:" in out and " ms" in out
    code, out, _ = run(capsys, "report", path, "--report", "machine")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["time_ms"], float)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_all_kinds(capsys, tmp_path):
    gen(capsys, tmp_path, "a.txt", "gen", "group-algebra", "--group", "Q8")
    gen(capsys, tmp_path, "b.txt", "gen", "function-algebra", "--group", "S3")
    gen(capsys, tmp_path, "c.txt", "gen", "sweedler")
    gen(capsys, tmp_path, "d.txt", "gen", "truss-q",
        "--group", "C2", "--endo", "trivial")
    gen(capsys, tmp_path, "e.txt", "gen", "truss-upsilon",
        "--group", "S3", "--upsilon", "trivial", "--phi-endo", "identity")
    for name in "abcde":
        code, _, _ = run(capsys, "check", str(tmp_path / f"{name}.txt"))
        assert code == 0


def test_gen_file_carries_basis_names(capsys, tmp_path):
    path = gen(capsys, tmp_path, "s3.txt",
               "gen", "group-algebra", "--group", "S3")
    with open(path) as fh:
        text = fh.read()
    assert "basis: 012 021 102 120 201 210" in text


def test_gen_over_prime_field(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c4.txt",
               "gen", "group-algebra", "--group", "C4", "--field", "GF:5")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "field: GF:5" in out


def test_gen_sweedler_char_two_rejected(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "sweedler", "--field", "GF:2",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_gen_missing_required_option(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "truss-q", "--group", "C2",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert "--endo" in err
    code, _, err = run(capsys, "gen", "group-algebra",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert "--group" in err


def test_gen_unknown_group(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "group-algebra", "--group", "E8",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("endo", ["idx:\u0663", "idx:+3", "idx: 3", "idx:1_0"])
def test_gen_rejects_an_index_outside_the_integer_grammar(capsys, tmp_path, endo):
    code, _, err = run(capsys, "gen", "truss-q", "--group", "D4", "--endo", endo,
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert "bad endomorphism index" in err
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("argv", [
    ["group-algebra", "--group", "G" * BIG],
    ["truss-q", "--group", "S3", "--endo", "e" * BIG],
    ["truss-q", "--group", "S3", "--endo", "idx:" + "1" * BIG],
    ["truss-q", "--group", "S3", "--endo", "idx:" + "1" * 4300],
], ids=["group", "endo", "endo-index", "endo-index-in-grammar"])
def test_gen_error_on_a_hostile_name_is_bounded(capsys, tmp_path, argv):
    code, _, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error: ") and len(err.encode()) < 300


def test_gen_upsilon_trivial_twist_matches_idempotent_form(capsys, tmp_path):
    a = gen(capsys, tmp_path, "a.txt", "gen", "truss-q",
            "--group", "S3", "--endo", "sign-retraction")
    b = gen(capsys, tmp_path, "b.txt", "gen", "truss-upsilon",
            "--group", "S3", "--upsilon", "sign-retraction",
            "--phi-endo", "trivial")
    with open(a) as fh:
        abytes = fh.read()
    with open(b) as fh:
        bbytes = fh.read()
    assert abytes == bbytes


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_round_trip_truss(capsys, tmp_path):
    t = gen(capsys, tmp_path, "t.txt", "gen", "truss-q",
            "--group", "S3", "--endo", "sign-retraction")
    w = str(tmp_path / "w.txt")
    code, out, _ = run(capsys, "construct", t, "--functor", "G", "-o", w)
    assert code == 0
    assert "wrote wtph file" in out
    code, _, _ = run(capsys, "check", w)
    assert code == 0
    t2 = str(tmp_path / "t2.txt")
    code, _, _ = run(capsys, "construct", w, "--functor", "F", "-o", t2)
    assert code == 0
    with open(t) as fh:
        first = fh.read()
    with open(t2) as fh:
        second = fh.read()
    assert first == second


def test_construct_round_trip_rota_baxter(capsys, tmp_path):
    t = gen(capsys, tmp_path, "t.txt", "gen", "truss-q",
            "--group", "D4", "--endo", "trivial")
    d = str(tmp_path / "d.txt")
    code, out, _ = run(capsys, "construct", t, "--functor", "Lambda", "-o", d)
    assert code == 0
    assert "wrote wtrb file" in out
    code, _, _ = run(capsys, "check", d)
    assert code == 0
    t2 = str(tmp_path / "t2.txt")
    code, _, _ = run(capsys, "construct", d, "--functor", "Omega", "-o", t2)
    assert code == 0
    with open(t) as fh:
        first = fh.read()
    with open(t2) as fh:
        second = fh.read()
    assert first == second


def test_construct_split(capsys, tmp_path):
    t = gen(capsys, tmp_path, "t.txt", "gen", "truss-q",
            "--group", "S3", "--endo", "sign-retraction")
    w = str(tmp_path / "w.txt")
    assert main(["construct", t, "--functor", "G", "-o", w]) == 0
    h = str(tmp_path / "h.txt")
    code, out, _ = run(capsys, "construct", w, "--functor", "split", "-o", h)
    assert code == 0
    assert "wrote hopf file" in out
    code, out, _ = run(capsys, "check", h)
    assert code == 0
    assert "dim: 2" in out


def test_construct_domain_mismatch(capsys, tmp_path):
    t = gen(capsys, tmp_path, "t.txt", "gen", "truss-q",
            "--group", "C2", "--endo", "identity")
    code, _, err = run(capsys, "construct", t, "--functor", "F",
                       "-o", str(tmp_path / "x.txt"))
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_idempotents(capsys):
    code, out, _ = run(capsys, "search", "idempotents", "--group", "S3")
    assert code == 0
    assert "group S3: 5 idempotent endomorphisms" in out
    assert out.count("endo:") == 5


def test_search_idempotents_census(capsys):
    expected = {"C1": 1, "C2": 2, "C6": 4, "D4": 10, "Q8": 2}
    for name, count in expected.items():
        code, out, _ = run(capsys, "search", "idempotents", "--group", name)
        assert code == 0
        assert f"group {name}: {count} idempotent endomorphisms" in out


def test_search_rb_operators(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra",
               "--group", "C2", "--field", "GF:5")
    code, out, _ = run(capsys, "search", "rb-operators",
                       "--file", path, "--field", "GF:5")
    assert code == 0
    assert "searched 625 matrices over GF:5 at dim 2: 3 operators" in out
    found = {ln for ln in out.splitlines() if ln.startswith("q: ")}
    assert found == {"q: 0 1 1 0", "q: 1 0 0 1", "q: 1 1 0 0"}


def test_search_rb_operators_infinite_field_rejected(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra", "--group", "C2")
    code, _, err = run(capsys, "search", "rb-operators",
                       "--file", path, "--field", "Q")
    assert code == 2
    assert "infinite field" in err


def test_search_rb_operators_dimension_bound(capsys, tmp_path):
    path = gen(capsys, tmp_path, "s3.txt", "gen", "group-algebra",
               "--group", "S3", "--field", "GF:5")
    code, _, err = run(capsys, "search", "rb-operators",
                       "--file", path, "--field", "GF:5")
    assert code == 2
    assert err.startswith("error:")


def test_search_rb_operators_field_mismatch(capsys, tmp_path):
    path = gen(capsys, tmp_path, "c2.txt", "gen", "group-algebra",
               "--group", "C2", "--field", "GF:5")
    code, _, err = run(capsys, "search", "rb-operators",
                       "--file", path, "--field", "GF:3")
    assert code == 2
    assert err.startswith("error:")
