"""Parity-check matrices of the graph codes and their rank reports.

For a family member (n, m) on the graph with vertex set GF(q)^2, q = 2^m,
and d = (x1+y1)^n + x2 + y2:

    H   coset matrix: H[x][y] = 1 iff x XOR y is a connection vector, i.e.
        iff d(x, y) = 0; adjacency + identity, the parity-check matrix of
        the storage code (the code is its kernel).
    W   entrywise complement of H, the indicator of d != 0 (d^(q-1) over
        GF(q)); its rank differs from rank(H) by at most 1.
    D   the indicator of d + x1^n + y1^n != 0, i.e. W after the relabelling
        (x1, x2) -> (x1, x2 + x1^n), evaluated directly, never permuted from W.

H and D come from one zero-set builder: every row holds q zeros of d, or of
d + x1^n + y1^n for D, one per y1, and D is that matrix complemented.  Both
raise BudgetError for m >= 8 (over DEFAULT_GRAPH_BUDGET_BITS) before
allocating.  ``code_report`` ranks H densely, in place, so the report holds
one dense matrix at a time and keeps none, and takes the ranks of W and D,
and a second rank of H that must agree, from polyf2.graded_ranks; rank_D =
rank_W by construction, and substitution_ok checks that the block rank sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitmatrix import BitMatrix
from .carryfree import count_nm, nm_growth_bound_holds
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import GF2m
from .graphs import DEFAULT_GRAPH_BUDGET_BITS, CayleyGraph, FamilyParams, exponent_r_plus
from .polyf2 import graded_ranks


def _zero_set(params: FamilyParams, field: GF2m, relabel: bool) -> BitMatrix:
    """The q^2 x q^2 indicator of d = 0, or of d + x1^n + y1^n = 0 if relabel.

    Row (x1, x2) holds exactly q ones, one for each y1, at
    y2 = (x1+y1)^n + x2, plus x1^n + y1^n if relabel; they are set one block
    of q rows (one x1) at a time, after the dense budget check.
    """
    if field.m != params.m:
        raise ParameterError(f"field degree {field.m} does not match m={params.m}")
    q = field.q
    if q**4 > DEFAULT_GRAPH_BUDGET_BITS:
        raise BudgetError(f"dense matrix needs {q * q}^2 bits, over budget {DEFAULT_GRAPH_BUDGET_BITS}")
    out = BitMatrix(q * q, q * q)
    a = np.arange(q, dtype=np.int64)
    powers = field.pow_vec(a, params.n)
    shift = powers if relabel else np.zeros_like(powers)
    for x1 in range(q):
        # marked columns of the rows (x1, x2): [x2, y1] -> y1 * q + y2
        y2 = (powers[x1 ^ a] ^ shift[x1] ^ shift)[None, :] ^ a[:, None]
        cols = a * q + y2
        rows = x1 * q + a[:, None]
        np.bitwise_or.at(out.words, (rows, cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64))
    return out


def coset_matrix(params: FamilyParams, field: GF2m) -> BitMatrix:
    """The q^2 x q^2 coset matrix H: the zeros of d, one per y1 in each row."""
    return _zero_set(params, field, relabel=False)


def w_matrix(h: BitMatrix) -> BitMatrix:
    """H plus the all-one matrix, i.e. the entrywise complement."""
    if h.rows != h.cols:
        raise ParameterError("expected a square matrix")
    return h.complement()


def d_matrix(params: FamilyParams, field: GF2m) -> BitMatrix:
    """The relabelled indicator matrix D: the zero set of d + x1^n + y1^n, complemented in place."""
    out = _zero_set(params, field, relabel=True)
    out.invert()
    return out


@dataclass(frozen=True)
class CodeReport:
    """Ranks, dimension and exact rate of one family member.

    The counting bound N_m applies when n = 2^r + 1 for some r >= 1; for
    other odd n the two bound fields are None.  The growth-bound check in
    Z[sqrt(2)] exists for r = 1 only.
    """

    params: FamilyParams
    size: int
    rank_h: int
    rank_w: int
    rank_d: int
    dimension: int
    rate: Fraction
    r: int | None
    n_m: int | None
    sandwich_ok: bool
    substitution_ok: bool
    nm_ok: bool | None
    closed_form_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.params.m,
            "size": self.size,
            "rank_H": self.rank_h,
            "rank_W": self.rank_w,
            "rank_D": self.rank_d,
            "dimension": self.dimension,
            "rate_num": self.rate.numerator,
            "rate_den": self.rate.denominator,
            "N_m": self.n_m,
            "bounds": {
                "sandwich_ok": self.sandwich_ok,
                "substitution_ok": self.substitution_ok,
                "nm_ok": self.nm_ok,
                "closed_form_ok": self.closed_form_ok,
            },
        }


def code_report(params: FamilyParams, field: GF2m | None = None, h: BitMatrix | None = None) -> CodeReport:
    """Ranks of H (dense, first, cross-checked), W and D (graded_ranks) plus the bounds.

    H is ranked in place: a caller that needs H, say to dump it, builds it
    with ``coset_matrix`` and passes it as h, which the rank then consumes.
    """
    if field is None:
        field = GF2m(params.m)
    if h is None:
        h = coset_matrix(params, field)
    rank_h = h.rank(overwrite=True)
    n, m = params.n, params.m
    poly_rank_h, rank_w, rank_d = graded_ranks(n, m)
    if poly_rank_h != rank_h:
        raise PropertyViolation(f"n={n} m={m}: dense rank(H)={rank_h}, polynomial {poly_rank_h}")
    size = h.rows
    dimension = size - rank_h
    r = exponent_r_plus(n)
    n_m = count_nm(m, r) if r is not None else None
    return CodeReport(
        params=params,
        size=size,
        rank_h=rank_h,
        rank_w=rank_w,
        rank_d=rank_d,
        dimension=dimension,
        rate=Fraction(dimension, size),
        r=r,
        n_m=n_m,
        sandwich_ok=abs(rank_h - rank_w) <= 1,
        substitution_ok=rank_w == rank_d,
        nm_ok=(rank_d <= n_m) if n_m is not None else None,
        closed_form_ok=nm_growth_bound_holds(m, n_m) if r == 1 else None,
    )


def sample_codewords(h: BitMatrix, count: int, seed: int) -> list[int]:
    """Deterministic pseudo-random GF(2) combinations of the kernel basis."""
    if count < 1:
        raise ParameterError("count must be positive")
    basis = h.kernel_basis()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        word = 0
        mask = rng.getrandbits(len(basis))
        for i, b in enumerate(basis):
            if (mask >> i) & 1:
                word ^= b
        out.append(word)
    return out


def verify_repair(graph: CayleyGraph, codeword: int) -> bool:
    """Check the storage property straight against the graph.

    Every coordinate v must equal the XOR of the coordinates v XOR s over
    the graph's steps s, one gather of all num_vertices coordinates per
    step.  This reads the connection vectors, not H, so it is an
    independent check on kernel vectors of the coset matrix.
    """
    n_vert = graph.num_vertices
    if codeword < 0 or codeword >> n_vert:
        raise ParameterError(f"codeword does not fit {n_vert} coordinates")
    raw = np.frombuffer(codeword.to_bytes((n_vert + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:n_vert]
    vertices = np.arange(n_vert)
    parity = bits.copy()
    for s in graph.steps:
        parity ^= bits[vertices ^ s]
    return not parity.any()
