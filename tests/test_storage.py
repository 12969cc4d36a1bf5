"""File format: round trips, canonical bytes, and malformed-input errors."""
import os

import pytest

from hopfkit.errors import ParseError, ShapeMismatch, UnknownKind
from hopfkit.factories import group_algebra, linearize_endo, named_endo, sweedler_h4
from hopfkit.fields import Field, QQ
from hopfkit.groups import cyclic, group_by_name, symmetric3
from hopfkit.linmap import LinMap, flip, identity, shape
from hopfkit.post_hopf import post_hopf_from_truss
from hopfkit.rota_baxter import rota_baxter_from_truss, truss_from_idempotent
from hopfkit import structures
from hopfkit.storage import KINDS, StructureFile, dumps, load, loads, save
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
