"""golodlab: exact-arithmetic detection of Golod rings via Groebner
degeneration, Koszul homology products, and Massey operations."""

from .analyzer import (
    AnalyzerConfig,
    FiberInvariantResult,
    GolodCertificate,
    degree_vanishing,
    fiber_invariant,
    golod_certificate,
    recognize_monomial_power,
)
from .betti import BettiTable, has_linear_resolution
from .determinantal import (
    LadderMatrix,
    ideal_power,
    maximal_minors,
    parse_mask,
    verify_sparse_theorems,
)
from .errors import (
    CapExceededError,
    GolodlabError,
    InconsistencyError,
    InputError,
    ParseError,
    RingMismatchError,
)
from .fields import GF, QQ, Field
from .groebner import GroebnerBasis, QuotientRing, buchberger, normal_form
from .koszul import HomologyClass, KoszulComplex, KoszulElement, koszul_betti, quotient_betti
from .massey import (
    MasseyTable,
    TrivialMasseyOutcome,
    build_rainbow_table,
    build_trivial_table,
)
from .monomial import (
    MonomialIdeal,
    Polarization,
    RainbowStructure,
    detect_rainbow,
    display_sorted,
    polarize,
    validate_rainbow,
)
from .orders import TermOrder, diagonal_order, grevlex, lex, weight_order
from .parsing import (
    IdealFile,
    ideal_file_str,
    infer_ring_from_text,
    parse_ideal_text,
    parse_order,
    parse_poly,
    parse_ring,
    poly_str,
)
from .resolution import PoincareData, poincare_coeffs, serre_bound
from .rings import PolyRing, Polynomial
from .taylor import taylor_betti

__all__ = [
    "AnalyzerConfig",
    "BettiTable",
    "CapExceededError",
    "FiberInvariantResult",
    "Field",
    "GF",
    "GolodCertificate",
    "GolodlabError",
    "GroebnerBasis",
    "HomologyClass",
    "IdealFile",
    "InconsistencyError",
    "InputError",
    "KoszulComplex",
    "KoszulElement",
    "LadderMatrix",
    "MasseyTable",
    "MonomialIdeal",
    "ParseError",
    "PoincareData",
    "Polarization",
    "PolyRing",
    "Polynomial",
    "QQ",
    "QuotientRing",
    "RainbowStructure",
    "RingMismatchError",
    "TermOrder",
    "TrivialMasseyOutcome",
    "buchberger",
    "build_rainbow_table",
    "build_trivial_table",
    "detect_rainbow",
    "diagonal_order",
    "degree_vanishing",
    "display_sorted",
    "fiber_invariant",
    "golod_certificate",
    "grevlex",
    "has_linear_resolution",
    "ideal_file_str",
    "ideal_power",
    "infer_ring_from_text",
    "koszul_betti",
    "lex",
    "maximal_minors",
    "normal_form",
    "parse_ideal_text",
    "parse_mask",
    "parse_order",
    "parse_poly",
    "parse_ring",
    "poincare_coeffs",
    "polarize",
    "poly_str",
    "quotient_betti",
    "recognize_monomial_power",
    "serre_bound",
    "taylor_betti",
    "validate_rainbow",
    "verify_sparse_theorems",
    "weight_order",
]
