"""Exact-arithmetic toolkit for binary storage codes on triangle-free
Cayley graphs over GF(2^m) x GF(2^m).

The package builds the graph family with connection sets {(a, a^n)}, its
parity-check (coset) matrices, and everything needed to verify the counting
identities, rank bounds and low-rank certificates that establish vanishing
parity-check rates: exact GF(2^m) arithmetic, bit-packed GF(2) linear
algebra at 10^4..10^5 dimensions, carry-free combinatorics, and sparse
polynomial algebra in characteristic 2.
"""

__version__ = "0.1.0"

from .bitmatrix import BitMatrix, SparseBitMatrix
from .carryfree import (
    Zsqrt2,
    b_set,
    count_nm,
    nm_bound,
    nm_closed_form,
    nm_long_recurrence,
    nm_recurrence,
)
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import GF2m, FieldMatrix, irreducible_polynomials, smallest_irreducible
from .graphs import (
    CayleyGraph,
    FamilyParams,
    build_graph,
    connection_set,
    export_edges,
    is_connected,
    is_triangle_free_criterion,
    triangle_oracle,
)
from .polyf2 import (
    CertificationResult,
    Monomial,
    SparsePoly,
    certify_unit_rate,
    coeff_matrix,
    eval_matrix,
    fermat_power,
    frobenius,
    poly_mul,
    poly_rank,
    substitute,
)
from .storage import (
    CodeReport,
    code_report,
    coset_matrix,
    d_matrix,
    sample_codewords,
    verify_repair,
    w_matrix,
)

__all__ = [
    "BitMatrix",
    "BudgetError",
    "CayleyGraph",
    "CertificationResult",
    "CodeReport",
    "FamilyParams",
    "FieldMatrix",
    "GF2m",
    "Monomial",
    "ParameterError",
    "PropertyViolation",
    "SparseBitMatrix",
    "SparsePoly",
    "Zsqrt2",
    "b_set",
    "build_graph",
    "certify_unit_rate",
    "code_report",
    "coeff_matrix",
    "connection_set",
    "coset_matrix",
    "count_nm",
    "d_matrix",
    "eval_matrix",
    "export_edges",
    "fermat_power",
    "frobenius",
    "irreducible_polynomials",
    "is_connected",
    "is_triangle_free_criterion",
    "nm_bound",
    "nm_closed_form",
    "nm_long_recurrence",
    "nm_recurrence",
    "poly_mul",
    "poly_rank",
    "sample_codewords",
    "smallest_irreducible",
    "substitute",
    "triangle_oracle",
    "verify_repair",
    "w_matrix",
]
