"""Exact-arithmetic toolkit for binary storage codes on triangle-free
Cayley graphs over GF(2^m) x GF(2^m).

The package builds the graph family with connection sets {(a, a^n)}, its
parity-check (coset) matrices, and everything needed to verify the counting
identities, rank bounds and low-rank certificates that establish vanishing
parity-check rates: exact GF(2^m) arithmetic, bit-packed GF(2) linear
algebra at 10^4..10^5 dimensions, carry-free combinatorics, and sparse
polynomial algebra in characteristic 2.

Importing the package imports none of its modules.  Each public name is
resolved on first use (PEP 562) by importing the module that ``_SOURCES``
lists it under, so ``storagecodes.certify_unit_rate`` loads ``polyf2`` and
what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "bitmatrix": ("BitMatrix", "SparseBitMatrix"),
    "carryfree": (
        "Zsqrt2",
        "b_set",
        "count_nm",
        "nm_bound",
        "nm_closed_form",
        "nm_long_recurrence",
        "nm_recurrence",
    ),
    "errors": ("BudgetError", "ParameterError", "PropertyViolation"),
    "field": ("GF2m", "FieldMatrix", "irreducible_polynomials", "smallest_irreducible"),
    "graphs": (
        "CayleyGraph",
        "FamilyParams",
        "build_graph",
        "connection_set",
        "export_edges",
        "is_connected",
        "is_triangle_free_criterion",
        "triangle_oracle",
    ),
    "polyf2": (
        "CertificationResult",
        "Monomial",
        "SparsePoly",
        "certify_unit_rate",
        "coeff_matrix",
        "eval_matrix",
        "fermat_power",
        "frobenius",
        "poly_mul",
        "poly_rank",
        "substitute",
    ),
    "storage": (
        "CodeReport",
        "code_report",
        "coset_matrix",
        "d_matrix",
        "sample_codewords",
        "verify_repair",
        "w_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
