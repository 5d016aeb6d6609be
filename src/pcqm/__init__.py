"""Pseudo-complex quantum mechanics toolkit.

Exact split-complex scalar arithmetic, a normal-ordering engine for the
branch operator algebra, symbolic SO(4) verification, (k,k) matrix irreps,
the minimal-length hydrogen spectrum, and natural-units conversion.
"""

from .limits import Limits, current_limits
from .scalars import (
    BaseScalar,
    DegreeWindowError,
    GaussianRational,
    PcScalar,
    ZeroDivisorPair,
    PC_I,
    PC_ONE,
    PC_ZERO,
    PSEUDO_UNIT,
    SIGMA_MINUS,
    SIGMA_PLUS,
    pc_gaussian,
    pc_imag,
    pc_l,
    pc_pseudo,
    pc_rational,
)
from .operators import (
    Generator,
    NcPolynomial,
    ProductSizeError,
    WordLengthError,
    commutator,
    expand_alias,
    gen,
    generator_poly,
    multiply,
    normal_form,
    pc_coordinate,
    pc_momentum,
    verify_canonical_relations,
    verify_induced_relations,
)
from .so4 import (
    CasimirExpansion,
    ComponentSet,
    PcGenerator,
    VectorOperators,
    branch_generator,
    build_generator,
    casimir,
    casimir_expansion,
    component,
    component_set,
    pc_generator_poly,
    vector_operators,
    verify_component_closure,
    verify_recomposition,
    verify_so4_relations,
)
from .irrep import (
    So4Irrep,
    SpinBlock,
    build_irrep,
    casimir_eigenvalue,
    denominator_eigenvalue,
    export_matrices,
    spin_block,
)
from .hydrogen import (
    BoundResult,
    EnergyLevel,
    PhysicalConstants,
    SpectrumConfig,
    born_infeld_length,
    corrected_spectrum,
    energy_level,
    length_bound,
)
from .units import ConstantSet, DimensionError, Quantity, convert, dimension_of, quantity
from .expr import ExprSyntaxError, evaluate, evaluate_text, parse, render
from .reports import Check, IdentityReport

__version__ = "0.1.0"
