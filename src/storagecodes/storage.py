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
allocating.  ``code_report`` ranks H densely and W, D as polynomials
(``graded_ranks``): W is red(d^(q-1)) (polyf2.fermat_power), and rank(1 + W)
must equal the dense rank of H; D is W substituted (polyf2.substitute), so
rank_D = rank_W by construction, and substitution_ok checks that the block
rank sees it.  The polynomial ranks take one weight class per orbit of
w -> 2w and w -> -w on Z/(q - 1), times the orbit size, and only those
classes (and class 2, for a self-check) are ever generated, all in one
fermat_power call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .bitmatrix import BitMatrix
from .carryfree import count_nm, nm_growth_bound_holds
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import GF2m
from .graphs import DEFAULT_GRAPH_BUDGET_BITS, CayleyGraph, FamilyParams, exponent_r_plus
from .polyf2 import SparsePoly, fermat_power, poly_rank, substitute


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
    np.invert(out.words, out=out.words)
    out._mask_pad()
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


def _orbit_parts(m: int) -> list[tuple[int, np.ndarray]]:
    """The classes mod q - 1 that graded_ranks ranks, as (multiplier, keep) parts.

    The orbit of w under w -> 2w and w -> -w on Z/(q - 1) is {+-2^k w : k < m};
    each class gets the least element of its orbit, and the orbit size is the
    number of classes with that least element.  keep is a part's bool table
    over the classes: class 0 alone, class 1 alone (the self-check compares
    class 2 with it), then the other least classes grouped by orbit size, the
    multiplier of their part, in increasing order of size.
    """
    period = (1 << m) - 1
    w = np.arange(period)
    images = (w << np.arange(m)[:, None]) % period  # 2^k w, one row per k < m
    least = np.minimum(images, -images % period).min(axis=0)
    size = np.bincount(least, minlength=period)  # at a least class, the size of its orbit
    lead = (least == w) & (w > 1)
    alone = [(1, w == 0)] + ([(int(size[1]), w == 1)] if period > 1 else [])
    return alone + [(int(s), lead & (size == s)) for s in np.flatnonzero(np.bincount(size[lead]))]


def graded_ranks(n: int, m: int) -> tuple[int, int, int]:
    """rank(1 + W), rank(W) and rank(D) of the member (n, m), ranking one class per orbit.

    W is red(d^(q-1)) (polyf2.fermat_power) and D is W substituted
    (polyf2.substitute).  With x1, y1 of weight 1 and x2, y2 of weight n, a
    row (e_x1, e_x2) has class w = e_x1 + n e_x2 mod q - 1, and every
    monomial of W has weight 0 mod q - 1, so the rows of class w meet only
    the columns of class -w and the rank is the sum over the classes.  W is
    its own transpose, as d is symmetric under (x1, x2) <-> (y1, y2), which
    takes class w to class -w; and W is its own square, a 0/1 function,
    which takes class w to class 2w.  Substitution keeps each class and both
    symmetries, and 1 + W differs from W in class 0 only.  So the rank is the
    sum over the orbits of w -> 2w and w -> -w of the orbit size times the
    rank of its least class.  One fermat_power call writes every part of
    _orbit_parts and class 2 of W, each alone (one keep table per part), so
    the whole of W is never listed.  For m >= 2 a rank of class 2 other than
    that of class 1 raises PropertyViolation.
    """
    period = (1 << m) - 1
    sizes, keeps = zip(*_orbit_parts(m))
    *parts, class_2 = fermat_power(n, m, m, [*keeps, np.arange(period) == 2])
    ranks_w = [poly_rank(p) for p in parts]
    if period > 1 and (rank_2 := poly_rank(class_2)) != ranks_w[1]:
        raise PropertyViolation(f"n={n} m={m}: class 2 of W has rank {rank_2}, class 1 {ranks_w[1]}")
    rank_w = sum(size * rank for size, rank in zip(sizes, ranks_w))
    rank_h = rank_w - ranks_w[0] + poly_rank(parts[0] + SparsePoly.one())
    rank_d = sum(size * poly_rank(substitute(p, n, m)) for size, p in zip(sizes, parts))
    return rank_h, rank_w, rank_d


def code_report(params: FamilyParams, field: GF2m | None = None) -> CodeReport:
    """Ranks of H (dense, first, cross-checked), W and D (graded_ranks) plus the bounds."""
    if field is None:
        field = GF2m(params.m)
    h = coset_matrix(params, field)
    rank_h = h.rank()
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
