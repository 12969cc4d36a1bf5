"""Command-line driver: check structure files, apply constructions, generate
examples, run small searches.

Exit codes are a stable contract: 0 all laws pass, 1 a law or a mathematical
precondition failed, 2 the input itself was unusable.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time

from .errors import (
    BoundExceeded,
    DomainMismatch,
    InputError,
    LawViolation,
    MathFailure,
)
from .factories import (
    SWEEDLER_BASIS,
    function_algebra,
    group_algebra,
    linearize_endo,
    named_endo,
    sweedler_h4,
)
from .fields import Field
from .groups import group_by_name, idempotent_endos
from .linmap import LinMap, TensorShape, tensor
from .post_hopf import (
    check_post_hopf,
    check_twisted,
    class_condition,
    induced_hopf,
    post_hopf_from_truss,
    truss_from_post_hopf,
)
from .rota_baxter import (
    check_rota_baxter,
    check_twisted_operator,
    rb_class_condition,
    rota_baxter_from_truss,
    truss_from_idempotent,
    truss_from_rota_baxter,
    truss_from_twisted_operator,
)
from .storage import KINDS, StructureFile, braid_generators, load, save
from .structures import (
    CheckReport,
    antipode_property_check,
    check_braided_object,
    check_hopf,
    coalgebra_morphism_report,
    is_entry_witness,
)
from .truss import check_truss, check_truss_derived, truss_class_condition

# ---------------------------------------------------------------------------
# the full check suite per kind
# ---------------------------------------------------------------------------


def structure_report(sf: StructureFile) -> CheckReport:
    """Every law the declared kind must satisfy, as one flat report.

    The twisted refinement laws are included when their precondition holds
    (a wtph cocycle that fixes the unit, a wtrb target with a unit), so a
    file never silently under-claims.
    """
    s = sf.structure
    rep = CheckReport()
    rep.merge(check_braided_object(s.obj, braid_generators(sf, "n")))
    if sf.kind == "hopf":
        rep.merge(check_hopf(s))
        rep.merge(antipode_property_check(s))
    elif sf.kind == "truss":
        rep.merge(check_truss(s))
        rep.merge(check_truss_derived(s))
    elif sf.kind == "wtph":
        rep.merge(check_post_hopf(s))
        twisted = check_twisted(s)
        if twisted.results[0].passed:  # twisted.cocycle-unital
            rep.merge(twisted)
    else:
        rep.merge(check_braided_object(s.target.obj, braid_generators(sf, "k")),
                  prefix="target.")
        rep.merge(check_rota_baxter(s))
        if s.target.eta is not None:
            rep.merge(check_twisted_operator(s))
    return rep


def star_verdict(sf: StructureFile) -> bool:
    """The braided-cocommutativity class verdict for kinds that have one."""
    if sf.kind == "truss":
        return truss_class_condition(sf.structure)
    if sf.kind == "wtph":
        return class_condition(sf.structure)
    if sf.kind == "wtrb":
        return rb_class_condition(sf.structure)
    raise InputError("--star is not defined for plain Hopf files")


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
# looked up when called, so a function rebound on this module is the one run
_FUNCTORS = {
    "F": ("wtph", "truss", lambda s: truss_from_post_hopf(s)),
    "G": ("truss", "wtph", lambda s: post_hopf_from_truss(s)),
    "Omega": ("wtrb", "truss", lambda s: truss_from_rota_baxter(s)),
    "Lambda": ("truss", "wtrb", lambda s: rota_baxter_from_truss(s)),
    "split": ("wtph", "hopf", lambda s: induced_hopf(s)[0]),
}


def cmd_construct(args) -> int:
    sf = load(args.path)
    domain, out_kind, construct = _FUNCTORS[args.functor]
    if sf.kind != domain:
        raise DomainMismatch(
            f"functor {args.functor} expects a {domain} file, got {sf.kind!r}")
    built = construct(sf.structure)
    # split changes the carrier, so the basis names no longer apply
    basis = None if args.functor == "split" else sf.basis
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
