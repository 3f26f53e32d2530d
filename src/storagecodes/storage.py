"""Parity-check matrices of the graph codes and their rank reports.

For a family member (n, m) on the graph with vertex set GF(q)^2, q = 2^m,
and d = (x1+y1)^n + x2 + y2 (polyf2.poly_d):

    H   coset matrix: H[x][y] = 1 iff x XOR y is a connection vector, i.e.
        iff d(x, y) = 0; adjacency + identity, the parity-check matrix of
        the storage code (the code is its kernel).
    W   entrywise complement of H, the indicator of d != 0 (d^(q-1) over
        GF(q)); its rank differs from rank(H) by at most 1.
    D   the indicator of d + x1^n + y1^n != 0, i.e. W after the relabelling
        (x1, x2) -> (x1, x2 + x1^n), evaluated directly, never permuted from W.

H is built from its first 64 rows by permuting whole words, and D by
clearing its q^3 zeros in an all-ones matrix; both raise BudgetError for
m >= 8 (over DEFAULT_GRAPH_BUDGET_BITS) before allocating.  ``code_report`` ranks
H densely and W, D as reduced Fermat powers (polyf2.reduce_mod); the
polynomial rank of 1 + red(d^(q-1)) must equal the dense rank of H.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .bitmatrix import WORD, BitMatrix
from .carryfree import count_nm, nm_growth_bound_holds
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import GF2m
from .graphs import DEFAULT_GRAPH_BUDGET_BITS, CayleyGraph, FamilyParams, connection_set, exponent_r_plus
from .polyf2 import SparsePoly, mersenne_powers, poly_d, poly_rank, reduce_mod


def _dense(n_vert: int) -> BitMatrix:
    """An all-zero n_vert x n_vert matrix, after the dense budget check."""
    if n_vert * n_vert > DEFAULT_GRAPH_BUDGET_BITS:
        raise BudgetError(f"dense matrix needs {n_vert}^2 bits, over budget {DEFAULT_GRAPH_BUDGET_BITS}")
    return BitMatrix(n_vert, n_vert)


def coset_matrix(params: FamilyParams, field: GF2m) -> BitMatrix:
    """The q^2 x q^2 coset matrix H of the connection set.

    H[x][y] depends on x XOR y only, so for x = 64k + l word j of row x is
    word k XOR j of row l: the first 64 rows are built from the indicator,
    and every further run of 64 rows is those rows with their words permuted.
    """
    n_vert = 1 << (2 * field.m)
    out = _dense(n_vert)
    indicator = np.zeros(n_vert, dtype=bool)
    indicator[list(connection_set(params, field).vectors)] = True
    base_rows = min(n_vert, WORD)
    ids = np.arange(n_vert, dtype=np.int32)
    base = BitMatrix.from_dense(indicator[np.bitwise_xor.outer(ids[:base_rows], ids)]).words
    words = np.arange(out.words.shape[1])
    for k in words:
        out.words[k * base_rows : (k + 1) * base_rows] = base[:, words ^ k]
    return out


def w_matrix(h: BitMatrix) -> BitMatrix:
    """H plus the all-one matrix, i.e. the entrywise complement."""
    if h.rows != h.cols:
        raise ParameterError("expected a square matrix")
    return h.complement()


def d_matrix(params: FamilyParams, field: GF2m) -> BitMatrix:
    """The relabelled indicator matrix D, by direct evaluation for any odd n.

    Row (x1, x2) is zero exactly at the q columns (y1, y2) with
    y2 = (x1+y1)^n + x2 + x1^n + y1^n, one per y1, so D starts all ones and
    those q^3 bits are cleared, one block of q rows (one x1) at a time.
    """
    if field.m != params.m:
        raise ParameterError(f"field degree {field.m} does not match m={params.m}")
    q = field.q
    out = _dense(q * q).complement()
    flat = out.words.reshape(-1)
    wpr = out.words.shape[1]
    a = np.arange(q, dtype=np.int64)
    powers = field.pow_vec(a, params.n)
    for x1 in range(q):
        # zero columns of the rows (x1, x2): [x2, y1] -> y1 * q + y2
        y2 = (powers[x1 ^ a] ^ powers[x1] ^ powers)[None, :] ^ a[:, None]
        cols = a * q + y2
        rows = x1 * q + a[:, None]
        np.bitwise_xor.at(flat, rows * wpr + (cols >> 6), np.uint64(1) << (cols & 63).astype(np.uint64))
    return out


@dataclass(frozen=True)
class CodeReport:
    """Ranks, dimension and exact rate of one family member.

    The counting bound N_m applies when n = 2^r + 1 for some r >= 1; for
    other odd n the two bound fields are None.  The growth-bound check in
    Z[sqrt(2)] exists for r = 1 only.  h is the coset matrix that was ranked,
    kept for ``--dump`` and left out of repr, comparison and the JSON.
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
    h: BitMatrix = dc_field(repr=False, compare=False)

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


def _indicator(delta: SparsePoly, m: int) -> SparsePoly:
    """red(delta^(q-1)) = [delta != 0]; reducing delta first keeps the products small."""
    *_, power = mersenne_powers(reduce_mod(delta, m), m)
    return reduce_mod(power, m)


def code_report(params: FamilyParams, field: GF2m | None = None) -> CodeReport:
    """Ranks of H (dense, first, cross-checked), W and D (polynomial) plus the bounds."""
    if field is None:
        field = GF2m(params.m)
    h = coset_matrix(params, field)
    rank_h = h.rank()
    n, m, period = params.n, params.m, (1 << params.m) - 1
    e = (n - 1) % period + 1  # a^n = a^e on GF(q), and e < 2q keeps poly_d(e) small
    e += period if e % 2 == 0 else 0  # poly_d needs an odd e; q - 1 is odd
    w = _indicator(poly_d(e), m)
    rank_w = poly_rank(w)
    if (poly_rank_h := poly_rank(w + SparsePoly.one())) != rank_h:
        raise PropertyViolation(f"n={n} m={m}: dense rank(H)={rank_h}, polynomial {poly_rank_h}")
    delta_d = poly_d(e) + SparsePoly.from_monomials([(e, 0, 0, 0), (0, 0, e, 0)])  # + x1^e + y1^e
    rank_d = poly_rank(_indicator(delta_d, m))
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
        h=h,
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

    Every coordinate must equal the XOR of its neighbours' coordinates.
    This goes through the adjacency rows, not through H, so it is an
    independent check on kernel vectors of the coset matrix.
    """
    n_vert = graph.num_vertices
    if codeword < 0 or codeword >> n_vert:
        raise ParameterError(f"codeword does not fit {n_vert} coordinates")
    for v in range(n_vert):
        if (codeword >> v) & 1 != (codeword & graph.adjacency[v]).bit_count() & 1:
            return False
    return True
