"""What each entry point loads: ``import hopfkit`` loads no submodule, a
subcommand loads only the modules it runs, and a function looked up lazily is
read off its module when called, so a rebound one is the one run."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfkit
from hopfkit import cli, post_hopf, rota_baxter
from hopfkit.post_hopf import post_hopf_from_truss
from hopfkit.storage import StructureFile, save, structure_report

from helpers import c2_identity_truss

PACKAGE = Path(hopfkit.__file__).resolve().parent

# the package's public names, by the module that defines them
PUBLIC = {
    "errors": (
        "BoundExceeded", "CharTwo", "ClassConditionFailed", "ConditionBFailed",
        "DomainMismatch", "HopfkitError", "InputError", "LawViolation", "MathFailure",
        "NoAntipode", "NonSymmetricBraiding", "NotATrussMorphism", "NotAnRBMorphism",
        "NotCocommutative", "NotIdempotent", "NotInvertible", "NotPhiTwisted",
        "ParseError", "PreconditionNotMet", "ShapeMismatch", "TNotInvertible",
        "UnknownGroup", "UnknownKind",
    ),
    "fields": ("QQ", "Field"),
    "linmap": ("LinMap", "TensorShape", "flip", "identity", "shape", "tensor", "zero_map"),
    "structures": (
        "AlgebraData", "BialgebraData", "BraidedObject", "CheckReport", "CoalgebraData",
        "HopfAlgebraData", "LawResult", "NonUnitalBialgebraData",
        "antipode_property_check", "check_bialgebra", "check_braided_object",
        "check_cocommutative", "check_hopf", "convolution", "convolution_inverse",
        "convolution_unit", "solve_antipode",
    ),
    "truss": (
        "HopfTrussData", "check_truss", "check_truss_derived", "check_truss_morphism",
        "truss_action", "truss_class_condition",
    ),
    "post_hopf": (
        "PostHopfData", "check_post_hopf", "check_twisted", "class_condition",
        "conjugation_post_hopf", "derived_antipode", "induced_bialgebra", "induced_hopf",
        "post_hopf_from_truss", "split_idempotent", "trivial_post_hopf",
        "truss_from_post_hopf",
    ),
    "rota_baxter": (
        "RotaBaxterData", "adjunction_check", "check_rb_morphism", "check_rota_baxter",
        "check_twisted_operator", "rb_class_condition", "rb_equivalence_check",
        "rota_baxter_from_truss", "truss_equivalence_check", "truss_from_idempotent",
        "truss_from_rota_baxter", "truss_from_twisted_operator",
    ),
    "groups": ("GroupTable", "group_by_name", "idempotent_endos"),
    "factories": (
        "function_algebra", "group_algebra", "linearize_endo", "named_endo", "sweedler_h4",
    ),
    "storage": ("StructureFile", "dumps", "load", "loads", "save"),
}


def _python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    hopfkit; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(statement, cwd=None):
    """The modules a fresh interpreter loads running ``statement``, and the
    lines ``statement`` printed."""
    code = (f"import sys\nbefore = set(sys.modules)\n{statement}\n"
            "print(sorted(set(sys.modules) - before))")
    *printed, last = _python(code, cwd=cwd).splitlines()
    return set(ast.literal_eval(last)), printed


def test_import_hopfkit_loads_no_submodule():
    loaded, _ = _loaded_by("import hopfkit")
    assert "hopfkit" in loaded
    assert {m for m in loaded if m.startswith("hopfkit.")} == set()


def test_checking_a_truss_file_loads_no_other_kind_or_generator(tmp_path):
    save(StructureFile("truss", c2_identity_truss()), str(tmp_path / "t.txt"))
    # run as ``python -m hopfkit check t.txt`` runs it, in the same process
    statement = ("import runpy\nsys.argv = ['hopfkit', 'check', 't.txt']\n"
                 "try:\n    runpy.run_module('hopfkit', run_name='__main__', alter_sys=True)\n"
                 "except SystemExit as e:\n    print('exit', e.code)")
    loaded, printed = _loaded_by(statement, cwd=tmp_path)
    assert printed[-1] == "exit 0"
    assert any(line.endswith("all pass") for line in printed)
    assert {"hopfkit.cli", "hopfkit.storage", "hopfkit.truss"} <= loaded
    unused = {"hopfkit.post_hopf", "hopfkit.rota_baxter", "hopfkit.groups",
              "hopfkit.factories", "json"}
    assert loaded & unused == set()


def test_each_public_name_is_its_module_attribute():
    names = [(module, name) for module, names in PUBLIC.items() for name in names]
    assert sorted(hopfkit.__all__) == sorted(name for _, name in names)
    assert sorted(dir(hopfkit)) == sorted(hopfkit.__all__)
    for module, name in names:
        want = getattr(importlib.import_module(f"hopfkit.{module}"), name)
        assert hopfkit.__getattr__(name) is want, name  # the hook, not a cached copy
        assert getattr(hopfkit, name) is want, name
        scope = {}
        exec(f"from hopfkit import {name}", scope)
        assert scope[name] is want, name


def test_public_names_resolve_in_a_fresh_interpreter():
    # first access goes through the hook: a from-import for one half of the
    # names, an attribute read for the other
    pairs = [(module, name) for module, names in PUBLIC.items() for name in names]
    code = ("import importlib, json, hopfkit\nbad = []\n"
            f"for i, (module, name) in enumerate({pairs!r}):\n"
            "    scope = {}\n"
            "    if i % 2:\n"
            "        exec(f'from hopfkit import {name}', scope)\n"
            "    else:\n"
            "        scope[name] = getattr(hopfkit, name)\n"
            "    want = getattr(importlib.import_module(f'hopfkit.{module}'), name)\n"
            "    if scope[name] is not want or getattr(hopfkit, name) is not want:\n"
            "        bad.append(name)\n"
            "print(json.dumps(bad))")
    assert json.loads(_python(code)) == []


def test_each_fresh_import_makes_its_own_fields_and_shapes():
    # import hopfkit afresh five times in one interpreter, as the benchmark
    # does before each set-up: each import's cached fields and shapes are its
    # own, and a truss built from its modules checks
    code = (
        "import importlib, json, sys\nseen, out = [], []\n"
        "for _ in range(5):\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'hopfkit']:\n"
        "        del sys.modules[m]\n"
        "    mod = {m: importlib.import_module('hopfkit.' + m) for m in\n"
        "           ('fields', 'linmap', 'groups', 'factories', 'rota_baxter', 'truss')}\n"
        "    f, lm = mod['fields'], mod['linmap']\n"
        "    g = mod['groups'].group_by_name('S3')\n"
        "    passed = []\n"
        "    for fld in (f.QQ, f.Field(5)):\n"
        "        h = mod['factories'].group_algebra(g, fld)\n"
        "        q = mod['factories'].linearize_endo(g, mod['factories'].named_endo(\n"
        "            g, 'sign-retraction'), fld)\n"
        "        t = mod['rota_baxter'].truss_from_idempotent(h, q)\n"
        "        passed.append(mod['truss'].check_truss(t).passed)\n"
        "    out.append([f.QQ is f.Field(0), lm.TensorShape(()) is lm.UNIT_SHAPE,\n"
        "                all(passed), f.QQ not in seen, lm.UNIT_SHAPE not in seen])\n"
        "    seen += [f.QQ, lm.UNIT_SHAPE]\n"
        "print(json.dumps(out))")
    assert json.loads(_python(code)) == [[True] * 5] * 5


def _spy(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records each call."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_structure_report_runs_a_rebound_checker(monkeypatch):
    w = post_hopf_from_truss(c2_identity_truss())
    calls = _spy(monkeypatch, post_hopf, "check_twisted")
    rep = structure_report(StructureFile("wtph", w))
    assert rep.passed and len(calls) == 1 and calls[0][0] is w


@pytest.mark.parametrize("module, name, functor, kind", [
    (post_hopf, "check_twisted", "G", "wtph"),  # run by the check before saving
    (rota_baxter, "rota_baxter_from_truss", "Lambda", "wtrb"),
])
def test_construct_runs_a_rebound_function(monkeypatch, capsys, tmp_path,
                                           module, name, functor, kind):
    src, out = str(tmp_path / "t.txt"), str(tmp_path / "out.txt")
    save(StructureFile("truss", c2_identity_truss()), src)
    calls = _spy(monkeypatch, module, name)
    assert cli.main(["construct", src, "--functor", functor, "-o", out]) == 0
    assert capsys.readouterr().out == f"wrote {kind} file: {out}\n"
    assert len(calls) == 1
