"""Text serialization of structures and atomic, canonical saving.

File layout (UTF-8, human-diffable)::

    format-version: 1
    kind: truss
    field: Q
    dim: 6
    braiding: flip
    basis: e 021 102 120 201 210
    meta source: gen truss-q --group S3

    map eta: 6x1
    1
    0
    ...

Headers first, then one ``map NAME: RxC`` section per structure map with R
rows of C exact scalars (rationals as ``a/b``, prime-field elements as
canonical integers).  ``SCHEMAS`` below is the single statement of what each
kind is: its map sections in file order, the attribute each one fills, and
its shape; its law suite; and its class verdict.  Loading, saving, the CLI's
kind list, ``structure_report`` and the CLI's ``--star`` verdict are all read
off it.  A kind's classes and verdict are named there as ``module.name``
strings and read off their module by :func:`resolve` when used, and its law
suite imports its checkers when run, so a file of one kind loads only the
modules that kind needs.  A structure with a non-flip braiding declares
``braiding: explicit`` and ships the matrix as a map section.  Saving is
canonical (same structure, same bytes) and atomic (temp file then rename).
"""
from __future__ import annotations

import importlib
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional

from .errors import ParseError, ShapeMismatch, UnknownKind, _echo, _echo_int
from .fields import Field, FieldError, parse_natural
from .linmap import LinMap, TensorShape, from_terms
from .structures import BraidedObject, CheckReport, check_braided_object

FORMAT_VERSION = 1

# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------

# The braided objects of a file, by the letter spelling their dimension in a
# map shape: (dimension header, braiding header, prefix of its laws in a
# report).  An explicit braiding is shipped as a map section named like its
# header.
_OBJECTS = {"n": ("dim", "braiding", ""), "k": ("dimB", "braidingB", "target.")}

# One map section: its name, the dotted attribute path it fills, dom and cod
# spelled in object letters ("nn" is carrier (x) carrier, "" the ground
# field), the letter of the object whose braiding it must be natural for (if
# any), and whether it may be absent.
MapRow = namedtuple("MapRow", "section path dom cod generator optional",
                    defaults=(None, False))


def _hopf_rows(prefix=""):
    return (
        MapRow("eta", prefix + "eta", "", "n"),
        MapRow("mu", prefix + "mu", "nn", "n", "n"),
        MapRow("eps", prefix + "eps", "n", ""),
        MapRow("delta", prefix + "delta", "n", "nn", "n"),
        MapRow("lambda", prefix + "antipode", "n", "n", "n"),
    )


def resolve(ref):
    """The object ``ref``, a ``module.name`` string, names in this package,
    read off its module now: the module is imported on first use, and a name
    rebound on it since is the one returned."""
    module, _, name = ref.partition(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


# The law suites, each yielding its reports in order.  The twisted
# refinements run when their precondition holds (a wtph cocycle that fixes
# the unit, a wtrb target with a unit), so a file never silently
# under-claims.  Each checker is read off its module when called, so the
# module loads only then and a function rebound on it is the one run.
def _hopf_laws(h):
    from . import structures
    yield structures.check_hopf(h)
    yield structures.antipode_property_check(h)


def _truss_laws(t):
    from . import truss
    yield truss.check_truss(t)
    yield truss.check_truss_derived(t)


def _wtph_laws(w):
    from . import post_hopf
    yield post_hopf.check_post_hopf(w)
    unital = post_hopf.cocycle_unital_report(w)
    if unital.passed:
        yield post_hopf.check_twisted(w, unital)


def _wtrb_laws(w):
    from . import rota_baxter
    yield rota_baxter.check_rota_baxter(w)
    if w.target.eta is not None:
        yield rota_baxter.check_twisted_operator(w)


# What a kind is.  ``parts`` are the dataclasses the structure is built from,
# by attribute ("" the structure itself), each named for :func:`resolve` and
# with the letter of its ``obj`` (None: it has no such field); ``rows`` its
# map sections in file order; ``laws`` its law suite, run after the
# braided-object laws of each object; ``star`` its braided-cocommutativity
# class verdict, named for :func:`resolve` (None: none).
Schema = namedtuple("Schema", "parts rows laws star")

SCHEMAS = {
    "hopf": Schema({"": ("structures.HopfAlgebraData", "n")}, _hopf_rows(), _hopf_laws, None),
    "truss": Schema({"": ("truss.HopfTrussData", "n")}, (
        MapRow("eta", "eta", "", "n"),
        MapRow("mu1", "mu1", "nn", "n", "n"),
        MapRow("mu2", "mu2", "nn", "n", "n"),
        MapRow("eps", "eps", "n", ""),
        MapRow("delta", "delta", "n", "nn", "n"),
        MapRow("lambda", "antipode", "n", "n", "n"),
        MapRow("sigma", "cocycle", "n", "n", "n"),
    ), _truss_laws, "truss.truss_class_condition"),
    "wtph": Schema({"": ("post_hopf.PostHopfData", None),
                    "hopf": ("structures.HopfAlgebraData", "n")},
                   _hopf_rows("hopf.") + (
                       MapRow("m", "action", "nn", "n", "n"),
                       MapRow("phi", "cocycle", "n", "n", "n"),
                   ), _wtph_laws, "post_hopf.class_condition"),
    "wtrb": Schema({"": ("rota_baxter.RotaBaxterData", None),
                    "hopf": ("structures.HopfAlgebraData", "n"),
                    "target": ("structures.NonUnitalBialgebraData", "k")},
                   _hopf_rows("hopf.") + (
                       MapRow("muB", "target.mu", "kk", "k", "k"),
                       MapRow("epsB", "target.eps", "k", ""),
                       MapRow("deltaB", "target.delta", "k", "kk", "k"),
                       MapRow("phi", "action", "kn", "n"),
                       MapRow("T", "operator", "n", "k"),
                       MapRow("psi", "cocycle", "n", "n", "n"),
                       MapRow("etaB", "target.eta", "", "k", optional=True),
                   ), _wtrb_laws, "rota_baxter.rb_class_condition"),
}

KINDS = tuple(SCHEMAS)


def _schema(kind):
    if kind is None:
        raise UnknownKind("missing header 'kind'")
    if kind not in SCHEMAS:
        raise UnknownKind(f"unknown structure kind {_echo(kind)}")
    return SCHEMAS[kind]


def _attr(structure, path):
    return reduce(getattr, path.split("."), structure)


def _objects(parts, structure) -> Dict[str, BraidedObject]:
    return {letter: _attr(structure, part + ".obj" if part else "obj")
            for part, (_, letter) in parts.items() if letter}


def _build(parts, objs, maps):
    """The structure from its objects by letter and its maps by path."""
    kwargs = {part: {"obj": objs[letter]} if letter else {}
              for part, (_, letter) in parts.items()}
    for path, m in maps.items():
        part, _, attr = path.rpartition(".")
        kwargs[part][attr] = m
    top = kwargs.pop("")
    top.update((part, resolve(parts[part][0])(**kw)) for part, kw in kwargs.items())
    return resolve(parts[""][0])(**top)


@dataclass
class StructureFile:
    kind: str
    structure: object
    basis: Optional[List[str]] = None
    metadata: Optional[Dict[str, str]] = None

    def __post_init__(self):
        if self.metadata is None:
            self.metadata = {}


def braid_generators(sf: StructureFile, letter: str) -> Dict[str, LinMap]:
    """Section name -> map, for every map of ``sf`` that must be natural for
    the braiding of object ``letter`` (``"n"`` carrier, ``"k"`` target)."""
    return {row.section: _attr(sf.structure, row.path)
            for row in _schema(sf.kind).rows if row.generator == letter}


def structure_report(sf: StructureFile) -> CheckReport:
    """Every law the declared kind must satisfy, as one flat report: the
    braided-object laws of each object under its prefix, then the kind's
    law suite."""
    schema = _schema(sf.kind)
    rep = CheckReport()
    for letter, obj in _objects(schema.parts, sf.structure).items():
        rep.merge(check_braided_object(obj, braid_generators(sf, letter)),
                  prefix=_OBJECTS[letter][2])
    for part in schema.laws(sf.structure):
        rep.merge(part)
    return rep


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_headers(lines):
    """Consume ``key: value`` lines until the first map section; returns
    (headers dict, metadata dict, next index)."""
    headers = {}
    meta = {}
    i = 0
    while i < len(lines):
        lineno, raw = lines[i]
        if raw.startswith("map "):
            break
        if ":" not in raw:
            raise ParseError(f"expected 'key: value', got {_echo(raw)}", line=lineno)
        key, _, value = raw.partition(":")
        key = key.strip()
        value = value.strip()
        if key.startswith("meta "):
            meta[key[5:].strip()] = value
        elif key in headers:
            raise ParseError(f"duplicate header {_echo(key)}", line=lineno)
        else:
            headers[key] = value
        i += 1
    return headers, meta, i


def _parse_int(headers, key, lineno=None):
    if key not in headers:
        raise ParseError(f"missing header {key!r}", line=lineno)
    value = parse_natural(headers[key])
    if value is None:
        raise ParseError(f"header {key!r} is not an integer")
    return value


def _read_map(lines, i, field):
    """Parse one ``map NAME: RxC`` section starting at index i."""
    lineno, raw = lines[i]
    head = raw[4:]
    if ":" not in head:
        raise ParseError("malformed map header", line=lineno)
    name, _, size = head.partition(":")
    name = name.strip()
    label = f"map {_echo(name)}"
    size = size.strip().lower()
    if "x" not in size:
        raise ParseError(f"{label}: size must look like RxC", line=lineno)
    rtok, _, ctok = size.partition("x")
    nrows, ncols = parse_natural(rtok), parse_natural(ctok)
    if nrows is None or ncols is None:
        raise ParseError(f"{label}: bad size {_echo(size)}", line=lineno)
    i += 1
    rows = []
    for r in range(nrows):
        if i >= len(lines):
            raise ParseError(f"{label}: expected {_echo_int(nrows)} rows, file ended",
                             line=lineno)
        rlineno, rraw = lines[i]
        toks = rraw.split()
        if len(toks) != ncols:
            raise ParseError(
                f"{label} row {r}: expected {_echo_int(ncols)} entries, got {len(toks)}",
                line=rlineno)
        try:
            rows.append([field.parse(t) for t in toks])
        except Exception as e:
            raise ParseError(f"{label} row {r}: {e}", line=rlineno) from None
        i += 1
    return name, (nrows, ncols, rows), i


def loads(text: str) -> StructureFile:
    """Parse a structure file.  ``Field.parse`` is the one check of a scalar;
    ``take`` checks a section's size against its role and keeps the nonzeros."""
    lines = [(no + 1, ln.strip()) for no, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty file", line=1)
    headers, meta, i = _parse_headers(lines)
    version = _parse_int(headers, "format-version", lines[0][0])
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format-version {_echo(headers['format-version'])}")
    kind = headers.get("kind")
    schema = _schema(kind)
    if "field" not in headers:
        raise ParseError("missing header 'field'")
    try:
        field = Field.from_token(headers["field"])
    except FieldError as e:
        raise ParseError(f"bad field token: {e}") from None
    letters = [letter for _, letter in schema.parts.values() if letter]
    dims = {}
    for letter in letters:
        header = _OBJECTS[letter][0]
        dims[letter] = _parse_int(headers, header)
        if dims[letter] < 1:
            raise ParseError(f"{header} must be positive")
    n = dims["n"]
    basis = headers.get("basis")
    if basis is not None:
        basis = basis.split()
        if len(basis) != n:
            raise ParseError(f"basis lists {len(basis)} names for dim {_echo_int(n)}")

    raw_maps = {}
    while i < len(lines):
        name, payload, i = _read_map(lines, i, field)
        if name in raw_maps:
            raise ParseError(f"duplicate map {_echo(name)}")
        raw_maps[name] = payload

    def take(name, dom, cod):
        nrows, ncols, entries = raw_maps.pop(name)
        dom, cod = (TensorShape(tuple(dims[x] for x in s)) for s in (dom, cod))
        if (nrows, ncols) != (cod.total, dom.total):
            raise ShapeMismatch(
                f"map {name!r}: declared {_echo_int(nrows)}x{_echo_int(ncols)}, "
                f"role needs {_echo_int(cod.total)}x{_echo_int(dom.total)}")
        return from_terms(field, dom, cod, [(j, i, v) for i, row in enumerate(entries)
                                            for j, v in enumerate(row) if v])

    braids = {}
    for letter in letters:
        header = _OBJECTS[letter][1]
        mode = headers.get(header, "flip")
        if mode == "flip":
            if header in raw_maps:
                raise ParseError(f"{header} is flip but map {header!r} supplied")
        elif mode == "explicit":
            if header not in raw_maps:
                raise ParseError(f"{header} is explicit but map {header!r} missing")
            braids[letter] = take(header, letter * 2, letter * 2)
        else:
            raise ParseError(f"{header} must be 'flip' or 'explicit', got {_echo(mode)}")
    maps = {}
    for row in schema.rows:
        if row.section in raw_maps:
            maps[row.path] = take(row.section, row.dom, row.cod)
        elif not row.optional:
            raise ParseError(f"missing map {row.section!r} for kind {kind!r}")
    if raw_maps:
        stray = ", ".join(sorted(raw_maps))
        raise ParseError(f"unexpected map sections: {_echo(stray)}")
    objs = {letter: BraidedObject(field, dims[letter], braid=braids.get(letter))
            for letter in letters}
    return StructureFile(kind=kind, structure=_build(schema.parts, objs, maps),
                         basis=basis, metadata=meta)


def load(path: str) -> StructureFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: invalid byte at offset {e.start}") from None
    return loads(text)


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------


def dumps(sf: StructureFile) -> str:
    schema = _schema(sf.kind)
    objs = _objects(schema.parts, sf.structure)
    field = objs["n"].field
    out = [f"format-version: {FORMAT_VERSION}",
           f"kind: {sf.kind}",
           f"field: {field.token()}"]
    out.extend(f"{_OBJECTS[letter][0]}: {obj.dim}" for letter, obj in objs.items())
    out.extend(f"{_OBJECTS[letter][1]}: {'flip' if obj.is_flip else 'explicit'}"
               for letter, obj in objs.items())
    if sf.basis is not None:
        out.append("basis: " + " ".join(sf.basis))
    for key in sorted(sf.metadata or {}):
        out.append(f"meta {key}: {sf.metadata[key]}")

    sections = [(_OBJECTS[letter][1], obj.braid) for letter, obj in objs.items()
                if not obj.is_flip]
    sections.extend((row.section, _attr(sf.structure, row.path))
                    for row in schema.rows)
    for name, m in sections:
        if m is None:  # an optional map the structure does not carry
            continue
        out.append("")
        out.append(f"map {name}: {m.cod.total}x{m.dom.total}")
        for row in m.entries():
            out.append(" ".join(field.format(v) for v in row))
    return "\n".join(out) + "\n"


def save(sf: StructureFile, path: str) -> None:
    """Canonical bytes, written atomically beside the destination."""
    data = dumps(sf)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hopfkit-", suffix=".tmp")
    try:
        # mkstemp makes the file owner-only; give it the mode a plain open
        # would, 0o666 less the umask, which can only be read by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
