"""Exact linear algebra for finite-dimensional Hopf-type structures.

Structures (Hopf algebras, Hopf trusses, weak twisted post-Hopf algebras,
weak twisted relative Rota-Baxter operators) are given by structure-constant
matrices over the rationals or a prime field; every defining law is a matrix
identity this package states and checks exactly, and every construction
between the notions re-verifies its output.

Each public name below is imported from its module on first access (PEP 562),
so ``import hopfkit``, which ``python -m hopfkit`` runs first, loads no
submodule.
"""
import importlib

__version__ = "0.1.0"

# module -> the public names it gives the package
_EXPORTS = {
    "errors": (
        "BoundExceeded",
        "CharTwo",
        "ClassConditionFailed",
        "ConditionBFailed",
        "DomainMismatch",
        "HopfkitError",
        "InputError",
        "LawViolation",
        "MathFailure",
        "NoAntipode",
        "NonSymmetricBraiding",
        "NotATrussMorphism",
        "NotAnRBMorphism",
        "NotCocommutative",
        "NotIdempotent",
        "NotInvertible",
        "NotPhiTwisted",
        "ParseError",
        "PreconditionNotMet",
        "ShapeMismatch",
        "TNotInvertible",
        "UnknownGroup",
        "UnknownKind",
    ),
    "fields": ("QQ", "Field"),
    "linmap": ("LinMap", "TensorShape", "flip", "identity", "shape", "tensor", "zero_map"),
    "structures": (
        "AlgebraData",
        "BialgebraData",
        "BraidedObject",
        "CheckReport",
        "CoalgebraData",
        "HopfAlgebraData",
        "LawResult",
        "NonUnitalBialgebraData",
        "antipode_property_check",
        "check_bialgebra",
        "check_braided_object",
        "check_cocommutative",
        "check_hopf",
        "convolution",
        "convolution_inverse",
        "convolution_unit",
        "solve_antipode",
    ),
    "truss": (
        "HopfTrussData",
        "check_truss",
        "check_truss_derived",
        "check_truss_morphism",
        "truss_action",
        "truss_class_condition",
    ),
    "post_hopf": (
        "PostHopfData",
        "check_post_hopf",
        "check_twisted",
        "class_condition",
        "conjugation_post_hopf",
        "derived_antipode",
        "induced_bialgebra",
        "induced_hopf",
        "post_hopf_from_truss",
        "split_idempotent",
        "trivial_post_hopf",
        "truss_from_post_hopf",
    ),
    "rota_baxter": (
        "RotaBaxterData",
        "adjunction_check",
        "check_rb_morphism",
        "check_rota_baxter",
        "check_twisted_operator",
        "rb_class_condition",
        "rb_equivalence_check",
        "rota_baxter_from_truss",
        "truss_equivalence_check",
        "truss_from_idempotent",
        "truss_from_rota_baxter",
        "truss_from_twisted_operator",
    ),
    "groups": ("GroupTable", "group_by_name", "idempotent_endos"),
    "factories": (
        "function_algebra",
        "group_algebra",
        "linearize_endo",
        "named_endo",
        "sweedler_h4",
    ),
    "storage": ("StructureFile", "dumps", "load", "loads", "save"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return list(__all__)
