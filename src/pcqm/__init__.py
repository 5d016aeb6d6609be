"""Pseudo-complex quantum mechanics toolkit.

Exact split-complex scalar arithmetic, a normal-ordering engine for the
branch operator algebra, symbolic SO(4) verification, (k,k) matrix irreps,
the minimal-length hydrogen spectrum, and natural-units conversion.

The numeric layers load with the package.  The symbolic ones (``scalars``,
``operators``, ``so4``, ``expr`` and ``reports``) load on first use of one of
their names, so a process that never touches them never imports them.
"""

from .limits import Limits, current_limits
from .irrep import (
    So4Irrep,
    SpinBlock,
    build_irrep,
    casimir_eigenvalue,
    denominator_eigenvalue,
    spin_block,
)
from .hydrogen import (
    EnergyLevel,
    born_infeld_length,
    corrected_spectrum,
    length_bound,
)
from .units import DimensionError, convert

# Submodule -> the public names the package resolves from it on first use.
_LAZY = {
    "scalars": (
        "BaseScalar", "DegreeWindowError", "GaussianRational", "PcScalar", "PC_I", "PC_ONE",
        "PC_ZERO", "PSEUDO_UNIT", "SIGMA_MINUS", "SIGMA_PLUS", "pc_gaussian", "pc_imag",
        "pc_l", "pc_pseudo", "pc_rational",
    ),
    "operators": (
        "Generator", "NcPolynomial", "ProductSizeError", "WordLengthError", "commutator",
        "expand_alias", "gen", "generator_poly", "multiply", "normal_form", "pc_coordinate",
        "pc_momentum", "verify_canonical_relations", "verify_induced_relations",
    ),
    "so4": (
        "CasimirExpansion", "VectorOperators", "branch_generator",
        "casimir_expansion", "component", "pc_generator_poly", "vector_operators", "verify",
        "verify_casimir_expansion", "verify_component_closure", "verify_recomposition",
        "verify_so4_relations",
    ),
    "expr": ("ExprSyntaxError", "evaluate", "evaluate_text", "parse", "render"),
    "reports": ("Check", "IdentityReport"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A lazy submodule, or one of its public names (PEP 562)."""
    module = name if name in _LAZY else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


__version__ = "0.1.0"
