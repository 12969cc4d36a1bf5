"""Command-line interface: exit codes, output formats, and file workflows."""
import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit import fields
from hopfkit.cli import main, structure_report
from hopfkit.factories import group_algebra, linearize_endo, named_endo
from hopfkit.fields import QQ
from hopfkit.groups import cyclic
from hopfkit.post_hopf import post_hopf_from_truss
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit.storage import StructureFile, dumps, save
from hopfkit.structures import BraidedObject

from helpers import (
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
    rep = structure_report(StructureFile(kind, _braided(kind, carrier, target)))
    flip_rep = structure_report(
        StructureFile(kind, _braided(kind, "flip", target and "flip")))
    assert [r.law for r in rep.results] == [r.law for r in flip_rep.results]
    assert flip_rep.passed and not any(r.skipped for r in flip_rep.results)


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
