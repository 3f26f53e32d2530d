"""Independent brute-force oracles used across the test modules.

Everything here avoids the package's elimination and enumeration paths on
purpose: ranks come from enumerating row spans, parities from factorials,
and set constructions from quadratic scans.
"""

import math

import numpy as np

from storagecodes import polyf2
from storagecodes.bitmatrix import BitMatrix
from storagecodes.errors import ParameterError
from storagecodes.graphs import connection_set
from storagecodes.polyf2 import SparsePoly


def span_rank(row_ints) -> int:
    """log2 of the number of distinct GF(2) combinations of the rows.

    Exponential in the rank; keep it for matrices of rank up to ~20.
    """
    span = {0}
    for r in row_ints:
        span |= {v ^ r for v in span}
    return int(math.log2(len(span)))


def pivot_rank(row_ints) -> int:
    """GF(2) rank by plain top-bit pivot reduction on Python ints."""
    pivots = {}
    rank = 0
    for v in row_ints:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
    return rank


def mat_vec(matrix: BitMatrix, v: int) -> int:
    """Matrix-vector product over GF(2), row by row on Python ints.

    v and the result are little-endian bit ints (bit j = coordinate j); a v
    with a bit beyond the last column is a caller's bug, not a vector.
    """
    assert 0 <= v and not v >> matrix.cols, "vector does not fit the columns"
    return sum(((matrix.row_int(i) & v).bit_count() & 1) << i for i in range(matrix.rows))


def transpose(matrix: BitMatrix) -> BitMatrix:
    return BitMatrix.from_dense(matrix.to_dense().T)


def coset_matrix_by_xor_table(params, field) -> BitMatrix:
    """H[x][y] = [x XOR y in the connection set], one XOR table per 1024-row block."""
    n_vert = 1 << (2 * field.m)
    indicator = np.zeros(n_vert, dtype=bool)
    indicator[list(connection_set(params, field))] = True
    ids = np.arange(n_vert, dtype=np.int32)
    out = BitMatrix(n_vert, n_vert)
    for r0 in range(0, n_vert, 1024):
        sl = slice(r0, r0 + 1024)
        out.words[sl] = BitMatrix.from_dense(indicator[np.bitwise_xor.outer(ids[sl], ids)]).words
    return out


def d_matrix_by_evaluation(params, field) -> BitMatrix:
    """D[x][y] = [(x1+y1)^n + x2 + x1^n + y2 + y1^n != 0], one byte per entry, 256 rows at a time."""
    q = field.q
    n_vert = q * q
    ids = np.arange(n_vert, dtype=np.int32)
    x1 = ids >> field.m
    x2 = ids & (q - 1)
    powers = field.pow_vec(np.arange(q, dtype=np.int64), params.n).astype(np.int32)
    shift = x2 ^ powers[x1]  # x2 + x1^n per vertex
    out = BitMatrix(n_vert, n_vert)
    for r0 in range(0, n_vert, 256):
        sl = slice(r0, r0 + 256)
        values = powers[np.bitwise_xor.outer(x1[sl], x1)] ^ shift[sl, None] ^ shift
        out.words[sl] = BitMatrix.from_dense(values != 0).words
    return out


def export_edges_by_neighbors(graph, sink) -> None:
    """The edge export, one line per neighbour v > u of each vertex u, from the sorted u XOR s."""
    p = graph.params
    sink.write(
        f"# cayley n={p.n} m={p.m} vertices={graph.num_vertices} edges={graph.edge_count()}\n"
    )
    for u in range(graph.num_vertices):
        for v in sorted(u ^ s for s in graph.steps):
            if v > u:
                sink.write(f"{u} {v}\n")


def verify_repair_by_rows(graph, codeword: int) -> bool:
    """The repair check on Python-int neighbour rows 1 << (v XOR s), one vertex at a time."""
    n_vert = graph.num_vertices
    if codeword < 0 or codeword >> n_vert:
        raise ParameterError(f"codeword does not fit {n_vert} coordinates")
    for v in range(n_vert):
        row = 0
        for s in graph.steps:
            row |= 1 << (v ^ s)
        if (codeword >> v) & 1 != (codeword & row).bit_count() & 1:
            return False
    return True


def b_set_by_pair_scan(s: int, r: int) -> list[int]:
    """Quadratic scan over all (l1, l2) pairs below s."""
    out = set()
    for l1 in range(s + 1):
        for l2 in range(s + 1):
            if l1 & l2 == 0 and (l1 | l2) | s == s:
                out.add((l1 << r) + l2)
    return sorted(out)


def b_values_by_sets(s: int, r: int) -> set[int]:
    """b_set(s, r) as a Python set, grown one set bit of s at a time.

    Each set bit of s goes to l1, to l2 or to neither; the set does the
    deduplication.
    """
    vals = {0}
    for i in range(s.bit_length()):
        if (s >> i) & 1:
            vals = {v + c for v in vals for c in (0, 1 << i, 1 << (i + r))}
    return vals


def poly_mul_by_dict(p_monomials, q_monomials) -> set:
    """Schoolbook product of monomial sets with XOR coefficients."""
    acc = set()
    for a in p_monomials:
        for b in q_monomials:
            m = tuple(x + y for x, y in zip(a, b))
            acc ^= {m}
    return acc


def xor_reduce_by_counts(codes: np.ndarray) -> np.ndarray:
    """The codes that occur an odd number of times, sorted, from np.unique's counts."""
    vals, counts = np.unique(codes, return_counts=True)
    return vals[(counts & 1) == 1]


def d_by_binomials(n: int, extra=()) -> SparsePoly:
    """(x1 + y1)^n + x2 + y2 plus the monomials in extra, from binomial parities by factorials."""
    mons = [(i, 0, n - i, 0) for i in range(n + 1) if math.comb(n, i) % 2]
    return SparsePoly(xor_reduce_by_counts(np.array(
        [polyf2._pack(mon) for mon in [*mons, (0, 1, 0, 0), (0, 0, 0, 1), *extra]], dtype=np.uint64
    )))


def mersenne_powers(p: SparsePoly, t_max: int):
    """Yield p^(2^t - 1) for t = 1..t_max, each the previous times frobenius(p, t - 1).

    The product route: it calls polyf2.poly_mul and polyf2.frobenius through
    the module, so it forms every product the closed form avoids.
    """
    if t_max < 1:
        raise ParameterError("t_max must be a positive integer")
    acc = p
    yield acc
    for i in range(1, t_max):
        acc = polyf2.poly_mul(acc, polyf2.frobenius(p, i))
        yield acc


def mersenne_power(p: SparsePoly, t: int) -> SparsePoly:
    """p^(2^t - 1): the last power mersenne_powers yields."""
    return list(mersenne_powers(p, t))[-1]


def reduce_mod(p: SparsePoly, m: int) -> SparsePoly:
    """p mod x^q - x in every variable, q = 2^m: the same function on GF(q)^4.

    Exponents e >= 1 become ((e - 1) mod (q - 1)) + 1 and collisions cancel
    (by np.unique's counts); reduced monomials are a basis of the functions,
    so coefficient rank = evaluation rank.
    """
    if m < 1:
        raise ParameterError(f"m={m}: the field degree must be positive")
    period = (1 << m) - 1
    mons = [tuple((e - 1) % period + 1 if e else 0 for e in mon) for mon in p.monomials()]
    return SparsePoly(xor_reduce_by_counts(np.array([polyf2._pack(mon) for mon in mons], dtype=np.uint64)))


def fermat_indicators(n: int, m: int) -> tuple[SparsePoly, SparsePoly]:
    """red(d^(q-1)) and red(d_D^(q-1)), d_D = d + x1^n + y1^n, by the product route.

    Every product is reduced (red(ab) = red(red(a) red(b))), and n enters as
    its residue mod q - 1, or q - 1 itself, which agrees with n on GF(q).
    """
    period = (1 << m) - 1
    e = n % period or period
    out = []
    for extra in ((), ((e, 0, 0, 0), (0, 0, e, 0))):
        d = reduce_mod(d_by_binomials(e, extra), m)
        acc = d
        for i in range(1, m):
            acc = reduce_mod(polyf2.poly_mul(acc, reduce_mod(polyf2.frobenius(d, i), m)), m)
        out.append(acc)
    return out[0], out[1]
