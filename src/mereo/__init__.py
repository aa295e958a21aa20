"""Finite models of parthood theories: derived relations, sums and
suprema, an axiom catalog with counterexample witnesses, theory
membership, bounded model enumeration and countermodel search, and the
Boolean-lattice correspondence by zero adjunction."""

from .core import (
    MAX_UNIVERSE_SIZE, DomainError, ElementId, MereologyError,
    ParthoodStructure, Subset,
)
from .sums import (
    SumQueryResult, SupQueryResult, UniquenessFault, binary_sum, complement,
    difference, is_sum, is_sup, product, product_by_cases, sum_of, sup_of,
)
from .axioms import (
    CATALOG, CATALOG_ORDER, AxiomId, CatalogError, Verdict, check_all,
    check_axiom, holds, satisfies,
)
from .theories import (
    DERIVED_THESES, THEORY_AXIOMS, TheoryId, TheoryVerdict, check_theory,
    derived_theses, theory_axioms,
)
from .search import (
    DEFAULT_SWEEP_MAX, SEARCH_MAX, SearchResult, SearchSpec, canonical_form,
    count_models, enumerate_models, find_model, is_canonical,
    verify_implication,
)
from .lattice import (
    LatticeReport, OrderError, ZeroedStructure, adjoin_zero, lattice_report,
    tarski_check,
)
from .weakparts import (
    AcyclicityVerdict, LocalTransitivityVerdict, PartPath, is_acyclic,
    is_locally_transitive, paths_between,
)

__all__ = [
    "MAX_UNIVERSE_SIZE", "DEFAULT_SWEEP_MAX", "SEARCH_MAX",
    "MereologyError", "DomainError", "CatalogError", "UniquenessFault",
    "OrderError",
    "ElementId", "Subset", "ParthoodStructure",
    "is_sum", "is_sup", "sum_of", "sup_of", "SumQueryResult", "SupQueryResult",
    "product", "difference", "complement", "binary_sum", "product_by_cases",
    "AxiomId", "Verdict", "CATALOG", "CATALOG_ORDER",
    "check_axiom", "check_all", "holds", "satisfies",
    "TheoryId", "TheoryVerdict", "THEORY_AXIOMS", "DERIVED_THESES",
    "check_theory", "theory_axioms", "derived_theses",
    "SearchSpec", "SearchResult", "canonical_form", "is_canonical",
    "enumerate_models", "count_models", "find_model", "verify_implication",
    "ZeroedStructure", "LatticeReport", "adjoin_zero", "lattice_report",
    "tarski_check",
    "PartPath", "AcyclicityVerdict", "LocalTransitivityVerdict",
    "is_acyclic", "is_locally_transitive", "paths_between",
]

__version__ = "0.1.0"
