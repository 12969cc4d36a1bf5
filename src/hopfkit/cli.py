"""Command-line driver: check structure files, apply constructions, generate
examples, run small searches.

Exit codes are a stable contract: 0 all laws pass, 1 a law or a mathematical
precondition failed, 2 the input itself was unusable.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
import time

# only what every subcommand uses: each kind's own module is loaded by storage
# when a file of that kind is built or checked, and gen, search, construct
# and the machine report import the rest themselves
from .errors import (
    BoundExceeded,
    DomainMismatch,
    InputError,
    LawViolation,
    MathFailure,
)
from .fields import Field
from .linmap import LinMap, TensorShape, tensor
from .storage import KINDS, SCHEMAS, StructureFile, load, resolve, save, structure_report
from .structures import CheckReport, coalgebra_morphism_report, is_entry_witness


def star_verdict(sf: StructureFile) -> bool:
    """The braided-cocommutativity class verdict for kinds that have one."""
    star = SCHEMAS[sf.kind].star
    if star is None:
        raise InputError("--star is not defined for plain Hopf files")
    return resolve(star)(sf.structure)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _law_record(r) -> dict:
    if r.skipped:
        return {"law": r.law, "status": "skip", "reason": str(r.witness)}
    if r.passed:
        return {"law": r.law, "status": "pass"}
    rec = {"law": r.law, "status": "fail"}
    w = r.witness
    if is_entry_witness(w):
        rec["witness"] = {"row": w[0], "col": w[1],
                          "lhs": str(w[2]), "rhs": str(w[3])}
    else:
        rec["witness"] = repr(w)
    return rec


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's 4300-digit int -> str cap while a report prints: exact
    arithmetic grows witnesses past it.  Parsing keeps it, bounding its cost."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _emit(sf: StructureFile, rep: CheckReport, star, mode: str,
          time_ms=None) -> None:
    obj = sf.structure.obj
    if mode == "machine":
        import json
        doc = {
            "kind": sf.kind,
            "field": obj.field.token(),
            "dim": obj.dim,
            "passed": rep.passed,
            "laws": [_law_record(r) for r in rep.results],
        }
        if star is not None:
            doc["star"] = star
        if time_ms is not None:
            doc["time_ms"] = round(time_ms, 3)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    print(f"kind: {sf.kind}")
    print(f"field: {obj.field.token()}")
    print(f"dim: {obj.dim}")
    for line in rep.lines():
        print(line)
    if star is not None:
        print(f"star-condition: {'true' if star else 'false'}")
    if time_ms is not None:
        print(f"time: {time_ms:.1f} ms")
    bad = len(rep.failures())
    total = len(rep.results)
    print(f"result: {total} laws checked, "
          + ("all pass" if bad == 0 else f"{bad} FAIL"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    """``check``; ``report`` is the same plus the wall-clock time."""
    sf = load(args.path)
    if args.kind != "auto" and args.kind != sf.kind:
        raise DomainMismatch(
            f"file declares kind {sf.kind!r}; cannot check it as {args.kind!r}")
    t0 = time.perf_counter()
    rep = structure_report(sf)
    star = star_verdict(sf) if args.star else None
    elapsed = (time.perf_counter() - t0) * 1000.0
    timed = args.command == "report"
    with _any_int_digits():
        _emit(sf, rep, star, args.report, time_ms=elapsed if timed else None)
    return 0 if rep.passed else 1


# functor -> (input kind, output kind, construction); each construction is
# named for ``storage.resolve`` and read off its module when called, so the
# module loads only then and a function rebound on it is the one run
_FUNCTORS = {
    "F": ("wtph", "truss", "post_hopf.truss_from_post_hopf"),
    "G": ("truss", "wtph", "post_hopf.post_hopf_from_truss"),
    "Omega": ("wtrb", "truss", "rota_baxter.truss_from_rota_baxter"),
    "Lambda": ("truss", "wtrb", "rota_baxter.rota_baxter_from_truss"),
    "split": ("wtph", "hopf", "post_hopf.induced_hopf"),
}


def cmd_construct(args) -> int:
    sf = load(args.path)
    domain, out_kind, construction = _FUNCTORS[args.functor]
    if sf.kind != domain:
        raise DomainMismatch(
            f"functor {args.functor} expects a {domain} file, got {sf.kind!r}")
    built = resolve(construction)(sf.structure)
    basis = sf.basis
    if args.functor == "split":
        # keep the induced Hopf algebra; it has a new carrier, so the basis
        # names no longer apply
        built, basis = built[0], None
    out = StructureFile(kind=out_kind, structure=built, basis=basis,
                        metadata=dict(sf.metadata))
    _checked_save(out, args.output)
    print(f"wrote {out_kind} file: {args.output}")
    return 0


def _checked_save(sf: StructureFile, path: str) -> None:
    """No invalid artifact ever reaches disk."""
    rep = structure_report(sf)
    if not rep.passed:
        raise LawViolation(
            "constructed structure fails its own checks; nothing written",
            report=rep)
    save(sf, path)


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise InputError(f"gen {args.kind} needs --{name}")


def cmd_gen(args) -> int:
    from .factories import (SWEEDLER_BASIS, function_algebra, group_algebra,
                            linearize_endo, named_endo, sweedler_h4)
    from .groups import group_by_name
    from .rota_baxter import truss_from_idempotent, truss_from_twisted_operator
    fld = Field.from_token(args.field)
    if args.kind == "sweedler":
        out = StructureFile("hopf", sweedler_h4(fld), basis=list(SWEEDLER_BASIS))
    else:
        _require(args, ["group"])
        g = group_by_name(args.group)
        basis = list(g.names)
        if args.kind == "group-algebra":
            out = StructureFile("hopf", group_algebra(g, fld), basis=basis)
        elif args.kind == "function-algebra":
            out = StructureFile("hopf", function_algebra(g, fld), basis=basis)
        elif args.kind == "truss-q":
            _require(args, ["endo"])
            h = group_algebra(g, fld)
            q = linearize_endo(g, named_endo(g, args.endo), fld)
            out = StructureFile("truss", truss_from_idempotent(h, q),
                                basis=basis)
        else:  # truss-upsilon
            _require(args, ["upsilon", "phi-endo"])
            h = group_algebra(g, fld)
            ups = linearize_endo(g, named_endo(g, args.upsilon), fld)
            phi = linearize_endo(g, named_endo(g, args.phi_endo), fld)
            out = StructureFile("truss",
                                truss_from_twisted_operator(h, phi, ups),
                                basis=basis)
    _checked_save(out, args.output)
    print(f"wrote {out.kind} file: {args.output}")
    return 0


# search bounds: only finite fields, tiny carriers, a hard candidate budget
_SEARCH_DIM = 2
_SEARCH_BUDGET = 200000


def cmd_search(args) -> int:
    if args.what == "idempotents":
        from .groups import group_by_name, idempotent_endos
        g = group_by_name(args.group)
        endos = idempotent_endos(g)
        print(f"group {args.group}: {len(endos)} idempotent endomorphisms")
        for images in endos:
            pretty = " ".join(g.names[i] for i in images)
            print(f"endo: {pretty}")
        return 0

    # rb-operators: enumerate coalgebra endomorphisms q with
    # mu.(q(x)q) = q.mu.(q(x)id) over a small prime field
    fld = Field.from_token(args.field)
    if not fld.is_prime_field:
        raise BoundExceeded("cannot enumerate over an infinite field")
    sf = load(args.file)
    if sf.kind != "hopf":
        raise DomainMismatch(f"operator search expects a hopf file, got {sf.kind!r}")
    h = sf.structure
    if h.obj.field != fld:
        raise InputError(
            f"file is over {h.obj.field.token()}, search field is {fld.token()}")
    n = h.obj.dim
    if n > _SEARCH_DIM:
        raise BoundExceeded(f"carrier dimension {n} exceeds search bound {_SEARCH_DIM}")
    candidates = fld.char ** (n * n)
    if candidates > _SEARCH_BUDGET:
        raise BoundExceeded(
            f"{candidates} candidate matrices exceed the budget {_SEARCH_BUDGET}")
    i1 = h.obj.id(1)
    vshape = TensorShape((n,))
    found = []
    for flat in itertools.product(range(fld.char), repeat=n * n):
        rows = [list(flat[r * n:(r + 1) * n]) for r in range(n)]
        q = LinMap.from_entries(fld, vshape, vshape, rows)
        if not coalgebra_morphism_report(q, h, h).passed:
            continue
        if h.mu @ tensor(q, q) != q @ h.mu @ tensor(q, i1):
            continue
        found.append(q)
    print(f"searched {candidates} matrices over {fld.token()} at dim {n}: "
          f"{len(found)} operators")
    for q in found:
        flatrow = " ".join(fld.format(v) for row in q.entries() for v in row)
        print(f"q: {flatrow}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_check_args(p) -> None:
    p.add_argument("path", help="structure file to verify")
    p.add_argument("--kind", choices=["auto", *KINDS],
                   default="auto", help="expected kind (default: trust the file)")
    p.add_argument("--star", action="store_true",
                   help="also report the braided-cocommutativity class verdict")
    p.add_argument("--report", choices=["text", "machine"], default="text",
                   help="text lines or a JSON document")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopfkit",
        description="verify and construct finite-dimensional Hopf-type "
                    "structures given by exact structure constants")
    sub = p.add_subparsers(dest="command", required=True)

    _add_check_args(sub.add_parser(
        "check", help="run every law of the declared kind"))
    _add_check_args(sub.add_parser(
        "report", help="like check, plus wall-clock timing"))

    c = sub.add_parser("construct", help="apply a structure-to-structure map")
    c.add_argument("path", help="input structure file")
    c.add_argument("--functor", required=True, choices=list(_FUNCTORS),
                   help=", ".join(f"{name}: {a}->{b}" for name, (a, b, _)
                                  in _FUNCTORS.items()))
    c.add_argument("-o", "--output", required=True)

    g = sub.add_parser("gen", help="generate a stock example file")
    g.add_argument("kind", choices=["group-algebra", "function-algebra",
                                    "sweedler", "truss-q", "truss-upsilon"])
    g.add_argument("--group", help="catalog name: C1..C8, S3, D4, Q8")
    g.add_argument("--field", default="Q", help="Q or GF:p (default Q)")
    g.add_argument("--endo", help="idempotent endomorphism name for truss-q")
    g.add_argument("--upsilon", help="operator endomorphism for truss-upsilon")
    g.add_argument("--phi-endo", dest="phi_endo",
                   help="twisting endomorphism for truss-upsilon")
    g.add_argument("-o", "--output", required=True)

    s = sub.add_parser("search", help="enumerate small structure inventories")
    ssub = s.add_subparsers(dest="what", required=True)
    si = ssub.add_parser("idempotents",
                         help="idempotent endomorphisms of a catalog group")
    si.add_argument("--group", required=True)
    sr = ssub.add_parser("rb-operators",
                         help="brute-force product-twisting operators on a "
                              "small hopf file over GF(p)")
    sr.add_argument("--file", required=True)
    sr.add_argument("--field", required=True, help="GF:p")
    return p


_DISPATCH = {
    "check": cmd_check,
    "report": cmd_check,
    "construct": cmd_construct,
    "gen": cmd_gen,
    "search": cmd_search,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MathFailure as e:
        print(f"failed: {e}", file=sys.stderr)
        if e.report is not None:
            with _any_int_digits():
                for r in e.report.failures():
                    print(r.line(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
