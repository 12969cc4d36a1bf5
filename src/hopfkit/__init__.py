"""Exact linear algebra for finite-dimensional Hopf-type structures.

Structures (Hopf algebras, Hopf trusses, weak twisted post-Hopf algebras,
weak twisted relative Rota-Baxter operators) are given by structure-constant
matrices over the rationals or a prime field; every defining law is a matrix
identity this package states and checks exactly, and every construction
between the notions re-verifies its output.
"""

from .errors import (
    BoundExceeded,
    CharTwo,
    ClassConditionFailed,
    ConditionBFailed,
    DomainMismatch,
    HopfkitError,
    InputError,
    LawViolation,
    MathFailure,
    NoAntipode,
    NonSymmetricBraiding,
    NotATrussMorphism,
    NotAnRBMorphism,
    NotCocommutative,
    NotIdempotent,
    NotInvertible,
    NotPhiTwisted,
    ParseError,
    PreconditionNotMet,
    ShapeMismatch,
    TNotInvertible,
    UnknownGroup,
    UnknownKind,
)
from .fields import QQ, Field
from .linmap import LinMap, TensorShape, flip, identity, shape, tensor, zero_map
from .structures import (
    AlgebraData,
    BialgebraData,
    BraidedObject,
    CheckReport,
    CoalgebraData,
    HopfAlgebraData,
    LawResult,
    NonUnitalBialgebraData,
    antipode_property_check,
    check_bialgebra,
    check_braided_object,
    check_cocommutative,
    check_hopf,
    convolution,
    convolution_inverse,
    convolution_unit,
    solve_antipode,
)
from .truss import (
    HopfTrussData,
    check_truss,
    check_truss_derived,
    check_truss_morphism,
    truss_action,
    truss_class_condition,
)
from .post_hopf import (
    PostHopfData,
    check_post_hopf,
    check_twisted,
    class_condition,
    conjugation_post_hopf,
    derived_antipode,
    induced_bialgebra,
    induced_hopf,
    post_hopf_from_truss,
    split_idempotent,
    trivial_post_hopf,
    truss_from_post_hopf,
)
from .rota_baxter import (
    RotaBaxterData,
    adjunction_check,
    check_rb_morphism,
    check_rota_baxter,
    check_twisted_operator,
    rb_class_condition,
    rb_equivalence_check,
    rota_baxter_from_truss,
    truss_equivalence_check,
    truss_from_idempotent,
    truss_from_rota_baxter,
    truss_from_twisted_operator,
)
from .groups import GroupTable, group_by_name, idempotent_endos
from .factories import (
    function_algebra,
    group_algebra,
    linearize_endo,
    named_endo,
    sweedler_h4,
)
from .storage import StructureFile, dumps, load, loads, save

__version__ = "0.1.0"
