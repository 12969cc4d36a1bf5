"""File format: round trips, canonical bytes, and malformed-input errors."""
import collections
import os
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from helpers import HEADER_INTEGER_FORMS
from hopfkit.errors import ParseError, ShapeMismatch, UnknownKind
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, flip, identity, shape
from hopfkit.post_hopf import post_hopf_from_truss
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit import structures
from hopfkit.storage import KINDS, SCHEMAS, StructureFile, dumps, load, loads, save
from hopfkit.structures import BraidedObject


def dq_s3():
    g = symmetric3()
    h = group_algebra(g, QQ)
    q = linearize_endo(g, named_endo(g, "sign-retraction"), QQ)
    return truss_from_idempotent(h, q)


def all_kinds():
    t = dq_s3()
    return [
        StructureFile("hopf", group_algebra(cyclic(2), QQ), basis=["e", "g"]),
        StructureFile("hopf", sweedler_h4(Field.prime(7))),
        StructureFile("truss", t, metadata={"note": "sign retraction"}),
        StructureFile("wtph", post_hopf_from_truss(t)),
        StructureFile("wtrb", rota_baxter_from_truss(t)),
    ]


def test_round_trip_all_kinds(tmp_path):
    for i, sf in enumerate(all_kinds()):
        path = str(tmp_path / f"s{i}.txt")
        save(sf, path)
        back = load(path)
        assert back.kind == sf.kind
        assert back.structure == sf.structure
        assert back.basis == sf.basis
        assert back.metadata == sf.metadata


def test_canonical_bytes(tmp_path):
    for i, sf in enumerate(all_kinds()):
        text = dumps(sf)
        assert dumps(loads(text)) == text


def test_rational_normalization():
    sf = StructureFile("hopf", group_algebra(cyclic(2), QQ))
    text = dumps(sf).replace("map eta: 2x1\n1\n0", "map eta: 2x1\n2/2\n0/5")
    assert "2/2" in text
    again = dumps(loads(text))
    assert "2/2" not in again and "0/5" not in again
    assert loads(text).structure == sf.structure


def test_atomic_save_leaves_no_temp_files(tmp_path):
    sf = StructureFile("hopf", group_algebra(cyclic(3), QQ))
    path = str(tmp_path / "c3.txt")
    save(sf, path)
    save(sf, path)  # overwrite in place
    assert sorted(os.listdir(tmp_path)) == ["c3.txt"]
    assert load(path).structure == sf.structure


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_save_gives_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    sf = StructureFile("hopf", group_algebra(cyclic(3), QQ))
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("an older file\n")
    os.chmod(old, 0o640)
    before = os.umask(umask)
    try:
        save(sf, str(new))
        save(sf, str(old))
    finally:
        os.umask(before)
    for path in (new, old):
        assert os.stat(path).st_mode & 0o777 == mode
        assert path.read_bytes() == dumps(sf).encode("utf-8")


def test_wrong_entry_count_is_shape_error():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    broken = text.replace("map lambda: 2x2", "map lambda: 2x3")
    with pytest.raises(ParseError):
        loads(broken)  # rows no longer parse as declared
    broken2 = text.replace("map lambda: 2x2", "map lambda: 4x1")
    with pytest.raises((ShapeMismatch, ParseError)):
        loads(broken2)


def test_parse_error_carries_line_number():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    lines = text.splitlines()
    lines[7] = "1 junk"
    with pytest.raises(ParseError) as exc:
        loads("\n".join(lines))
    assert exc.value.line is not None
    assert "line" in str(exc.value)


def test_unknown_kind():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    with pytest.raises(UnknownKind):
        loads(text.replace("kind: hopf", "kind: ring"))


def test_missing_and_stray_maps():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    head, _, tail = text.partition("map lambda:")
    with pytest.raises(ParseError):
        loads(head)  # lambda section dropped entirely
    with pytest.raises(ParseError):
        loads(text + "\nmap extra: 1x1\n1\n")


def test_duplicate_header_and_map():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    with pytest.raises(ParseError):
        loads("dim: 2\n" + text)
    dup = text + "\n" + text[text.index("map eta:"):text.index("map mu:")]
    with pytest.raises(ParseError):
        loads(dup)


def test_explicit_braiding_round_trip():
    # a braiding that is not the flip: the flip scaled by -1 on a 1-dim space
    fld = QQ
    braid = LinMap.from_entries(fld, shape(1, 1), shape(1, 1), [[-1]])
    obj = BraidedObject(fld, 1, braid=braid)
    one = fld.one
    from hopfkit.linmap import UNIT_SHAPE, TensorShape
    mk = lambda dom, cod, cols: LinMap.from_cols(fld, dom, cod, cols)
    v1, v2 = TensorShape((1,)), TensorShape((1, 1))
    from hopfkit.structures import HopfAlgebraData
    h = HopfAlgebraData(obj,
                        eta=mk(UNIT_SHAPE, v1, [{0: one}]),
                        mu=mk(v2, v1, [{0: one}]),
                        eps=mk(v1, UNIT_SHAPE, [{0: one}]),
                        delta=mk(v1, v2, [{0: one}]),
                        antipode=identity(fld, v1))
    text = dumps(StructureFile("hopf", h))
    assert "braiding: explicit" in text
    assert "map braiding: 1x1" in text
    back = loads(text)
    assert not back.structure.obj.is_flip
    assert back.structure.obj.braid == braid
    assert dumps(back) == text


def test_explicit_flip_braiding_saves_as_flip():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))
    rows = "\n".join(" ".join(str(v) for v in row)
                     for row in flip(QQ, 2, 2).entries())
    explicit = (text.replace("braiding: flip", "braiding: explicit")
                + f"\nmap braiding: 4x4\n{rows}\n")
    back = loads(explicit)
    assert back.structure.obj.is_flip
    assert dumps(back) == text


def test_scalar_invalid_for_field_rejected():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), Field.prime(5))))
    with pytest.raises(ParseError) as exc:
        loads(text.replace("map eta: 2x1\n1\n0", "map eta: 2x1\n1/3\n0"))
    assert exc.value.line is not None
    with pytest.raises(ParseError):
        loads(text.replace("field: GF:5", "field: GF:6"))


def test_basis_length_checked():
    text = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ),
                               basis=["e", "g"]))
    with pytest.raises(ParseError):
        loads(text.replace("basis: e g", "basis: e g extra"))


C2_TEXT = dumps(StructureFile("hopf", group_algebra(cyclic(2), QQ)))

@pytest.mark.parametrize("old, new", HEADER_INTEGER_FORMS,
                         ids=[ascii(new) for _, new in HEADER_INTEGER_FORMS])
def test_header_integers_are_ascii_digits(old, new):
    assert old in C2_TEXT
    with pytest.raises(ParseError):
        loads(C2_TEXT.replace(old, new))


@pytest.mark.parametrize("kind", KINDS)
def test_header_only_file_fails_before_building_a_braiding(monkeypatch, kind):
    # a flip braiding is dim^2 columns: it must not be built for a file
    # that is rejected anyway, whatever dimension its header claims
    calls = []
    monkeypatch.setattr(structures, "flip", lambda *args: calls.append(args))
    text = (f"format-version: 1\nkind: {kind}\nfield: Q\n"
            "dim: 100000\ndimB: 100000\nbraiding: flip\n")
    with pytest.raises(ParseError):
        loads(text)
    assert calls == []


GF5 = Field.prime(5)

# scalar tokens as a file may hold them: canonical or not ("-0", "0/7",
# "2/4", "007"; over GF(5) values outside [0, 5)), zeros most often
_TOKENS = {
    QQ: st.one_of(
        st.sampled_from(["0", "0", "0", "1", "1", "-1", "2", "-0", "00", "0/7", "-0/3",
                         "2/4", "3/2", "-6/3", "10/5", "007", "-12/8"]),
        st.integers(-30, 30).map(str),
        st.tuples(st.integers(-30, 30), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}")),
    GF5: st.one_of(
        st.sampled_from(["0", "0", "0", "1", "1", "4", "-0", "7", "-1", "5", "-13", "0012"]),
        st.integers(-30, 30).map(str)),
}
_BAD_TOKENS = {QQ: ["x", "1/0", "1.5", "+1", "1/-2", "--1"], GF5: ["x", "1/2", "1.0", "+1"]}


@st.composite
def map_file(draw):
    """A ``hopf`` or ``wtrb`` file whose map sections, an explicit braiding
    among them or not, hold random tokens: (field, sections as (name, path,
    dom, cod), text lines, tokens by section, line of each row by section)."""
    fld = draw(st.sampled_from([QQ, GF5]))
    kind = draw(st.sampled_from(["hopf", "wtrb"]))
    dims = {"n": draw(st.integers(1, 3)), "k": draw(st.integers(1, 2))}
    explicit = draw(st.booleans())
    head = ["format-version: 1", f"kind: {kind}", f"field: {fld.token()}",
            f"dim: {dims['n']}", f"braiding: {'explicit' if explicit else 'flip'}"]
    if kind == "wtrb":
        head += [f"dimB: {dims['k']}", "braidingB: flip"]
    sections = [("braiding", "braiding", "nn", "nn")] if explicit else []
    sections += [(row.section, row.path, row.dom, row.cod) for row in SCHEMAS[kind].rows]
    sections = [(name, path, shape(*(dims[x] for x in dom)), shape(*(dims[x] for x in cod)))
                for name, path, dom, cod in sections]
    lines, tokens, at = head, {}, {}
    for name, _, dom, cod in sections:
        tokens[name] = draw(st.lists(st.lists(_TOKENS[fld], min_size=dom.total,
                                              max_size=dom.total),
                                     min_size=cod.total, max_size=cod.total))
        lines += ["", f"map {name}: {cod.total}x{dom.total}"]
        at[name] = []
        for row in tokens[name]:
            lines.append(" ".join(row))
            at[name].append(len(lines))
    return fld, sections, lines, tokens, at


def _loaded_map(sf, path):
    if path == "braiding":
        part = next(p for p, (_, letter) in SCHEMAS[sf.kind].parts.items() if letter == "n")
        path = part + ".obj.braid" if part else "obj.braid"
    return reduce(getattr, path.split("."), sf.structure)


def _typed(cols):
    return [{i: (type(v), v) for i, v in c.items()} for c in cols]


@settings(max_examples=60, deadline=None)
@given(map_file())
def test_a_loaded_map_holds_what_from_entries_builds_from_the_parsed_tokens(case):
    fld, sections, lines, tokens, _ = case
    sf = loads("\n".join(lines) + "\n")
    for name, path, dom, cod in sections:
        got = _loaded_map(sf, path)
        want = LinMap.from_entries(fld, dom, cod,
                                   [[fld.parse(t) for t in row] for row in tokens[name]])
        assert (got.field, got.dom, got.cod) == (fld, dom, cod)
        assert _typed(got.cols) == _typed(want.cols)


@settings(max_examples=60, deadline=None)
@given(map_file(), st.data())
def test_a_hostile_section_gives_its_error_text_and_line(case, data):
    fld, sections, lines, tokens, at = case
    name, _, dom, cod = data.draw(st.sampled_from(sections), label="section")
    fault = data.draw(st.sampled_from(["bad token", "short row", "long row", "size"]),
                      label="fault")
    r = data.draw(st.integers(0, cod.total - 1), label="row")
    line = at[name][r]
    row = list(tokens[name][r])
    lines = list(lines)
    if fault == "size":
        # one more row than the role has: every row parses, the size is refused
        lines.insert(at[name][-1], " ".join(["0"] * dom.total))
        lines[at[name][0] - 2] = f"map {name}: {cod.total + 1}x{dom.total}"
        want = (ShapeMismatch, f"map {name!r}: declared {cod.total + 1}x{dom.total}, "
                               f"role needs {cod.total}x{dom.total}")
    elif fault == "bad token":
        bad = data.draw(st.sampled_from(_BAD_TOKENS[fld]), label="token")
        row[data.draw(st.integers(0, len(row) - 1), label="column")] = bad
        lines[line - 1] = " ".join(row)
        what = "rational" if fld == QQ else "GF(5)"
        want = (ParseError, f"line {line}: map {name!r} row {r}: bad {what} scalar {bad!r}")
    else:
        # a row of no token is a blank line, which is skipped, so a short row
        # keeps one token at least
        row = row[:-1] if fault == "short row" and len(row) > 1 else row + ["0"]
        lines[line - 1] = " ".join(row)
        want = (ParseError, f"line {line}: map {name!r} row {r}: "
                            f"expected {dom.total} entries, got {len(row)}")
    with pytest.raises(want[0]) as exc:
        loads("\n".join(lines) + "\n")
    assert type(exc.value) is want[0] and str(exc.value) == want[1]
    if want[0] is ParseError:
        assert exc.value.line == line


def test_loads_parses_each_token_once_and_coerces_none(monkeypatch):
    t = dq_s3()
    texts = [dumps(StructureFile(kind, s)) for kind, s in (
        ("truss", t), ("wtph", post_hopf_from_truss(t)), ("wtrb", rota_baxter_from_truss(t)))]
    calls = collections.Counter()
    for name in ("parse", "coerce"):
        def counted(self, x, real=getattr(Field, name), name=name):
            calls[name] += 1
            return real(self, x)
        monkeypatch.setattr(Field, name, counted)
    for text in texts:
        body = text[text.index("\nmap "):].splitlines()
        ntokens = sum(len(ln.split()) for ln in body if not ln.startswith("map "))
        calls.clear()
        loads(text)
        assert calls == {"parse": ntokens}
