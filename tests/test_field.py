import numpy as np
import pytest

from storagecodes.bitmatrix import BitMatrix
from storagecodes.errors import ParameterError
from storagecodes.field import (
    FieldMatrix,
    GF2m,
    irreducible_polynomials,
    is_irreducible,
    smallest_irreducible,
)

from oracles import span_rank


def composite_sieve(max_degree: int) -> set:
    """All reducible polynomials up to max_degree, by multiplying out pairs."""
    composites = set()
    top = 1 << (max_degree + 1)
    for a in range(2, top):
        for b in range(2, top):
            prod = 0
            aa = a
            shift = 0
            while aa:
                if aa & 1:
                    prod ^= b << shift
                aa >>= 1
                shift += 1
            if prod < top:
                composites.add(prod)
    return composites


def test_smallest_irreducible_known_values():
    assert smallest_irreducible(1) == 0b11
    assert smallest_irreducible(2) == 0b111
    assert smallest_irreducible(3) == 0b1011
    assert smallest_irreducible(4) == 0b10011


def test_irreducibility_against_product_sieve():
    composites = composite_sieve(6)
    for p in range(3, 1 << 7, 2):
        assert is_irreducible(p) == (p not in composites), bin(p)


def test_irreducible_enumeration_is_sorted_and_valid():
    for m in (3, 4, 5):
        polys = list(irreducible_polynomials(m))
        assert polys == sorted(polys)
        assert all(p.bit_length() == m + 1 for p in polys)
        assert polys[0] == smallest_irreducible(m)
        assert len(polys) >= 2


def test_gf4_product_example():
    f = GF2m(2)
    assert f.mul(0b10, 0b10) == 0b11  # x * x = x + 1 mod x^2+x+1


def test_absorbing_and_identity():
    for m in (1, 2, 3, 5):
        f = GF2m(m)
        for a in f.elements():
            assert f.mul(a, 0) == 0
            assert f.mul(a, 1) == a


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = GF2m(m)
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    # every nonzero element has an inverse among its powers
    for a in elems[1:]:
        assert any(f.pow(a, k) == 1 for k in range(1, f.q))


def test_pow_small_field_identities():
    f4 = GF2m(2)
    for a in range(1, f4.q):
        assert f4.pow(a, 3) == 1
    f8 = GF2m(3)
    for a in f8.elements():
        assert f8.pow(a, 8) == a  # Frobenius fixed point x^q = x
        assert f8.pow(a, 1) == a
    assert f8.pow(0, 0) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_pow_order_divides_group_order(m):
    f = GF2m(m)
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_pow_doubling_random():
    rng = np.random.default_rng(7)
    f = GF2m(6)
    for _ in range(200):
        a = int(rng.integers(0, f.q))
        e = int(rng.integers(0, 500))
        assert f.pow(a, 2 * e) == f.mul(f.pow(a, e), f.pow(a, e))


def test_vectorised_ops_match_scalar():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5):
        f = GF2m(m)
        a = rng.integers(0, f.q, size=100)
        b = rng.integers(0, f.q, size=100)
        want = np.array([f.mul(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(f.mul_vec(a, b), want)
        for e in (0, 1, 2, 7, f.q - 1, 3 * f.q):
            want_pow = np.array([f.pow(int(x), e) for x in a])
            assert np.array_equal(f.pow_vec(a, e), want_pow)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        GF2m(0)
    with pytest.raises(ParameterError):
        GF2m(17)
    with pytest.raises(ParameterError):
        GF2m(3, modulus=0b1111)  # reducible: (x+1)(x^2+x+1)
    with pytest.raises(ParameterError):
        GF2m(3, modulus=0b1010)  # constant term 0
    f = GF2m(3)
    with pytest.raises(ParameterError):
        f.mul(8, 1)
    with pytest.raises(ParameterError):
        f.pow(1, -1)


def expanded_bit_rows(fm: FieldMatrix) -> list[int]:
    """View the matrix as a GF(2)-linear map: each entry v becomes the m x m
    matrix of w -> v*w in the polynomial basis.  The bit rank of the expanded
    matrix is exactly m times the rank over the field."""
    f = fm.field
    rows, cols = fm.shape
    out = []
    for i in range(rows):
        for s in range(f.m):  # output coordinate
            r = 0
            for j in range(cols):
                v = int(fm.values[i, j])
                for t in range(f.m):  # input basis vector x^t
                    if (f.mul(v, 1 << t) >> s) & 1:
                        r |= 1 << (j * f.m + t)
            out.append(r)
    return out


@pytest.mark.parametrize("m", [2, 3])
def test_field_matrix_rank_against_expansion_oracle(m):
    rng = np.random.default_rng(23 + m)
    f = GF2m(m)
    for _ in range(20):
        vals = rng.integers(0, f.q, size=(5, 6))
        fm = FieldMatrix(f, vals)
        expanded = BitMatrix.from_row_ints(expanded_bit_rows(fm), 6 * m)
        assert expanded.rank() % m == 0
        assert fm.rank() == expanded.rank() // m


def test_field_matrix_rank_binary_matches_bit_rank():
    rng = np.random.default_rng(5)
    f = GF2m(3)
    vals = rng.integers(0, 2, size=(10, 10))
    fm = FieldMatrix(f, vals)
    assert fm.values.max() <= 1
    assert fm.rank() == span_rank(BitMatrix.from_dense(vals).row_int(i) for i in range(10))


def test_field_matrix_hadamard_and_add():
    f = GF2m(2)
    a = FieldMatrix(f, np.array([[1, 2], [3, 0]]))
    b = FieldMatrix(f, np.array([[2, 2], [1, 3]]))
    had = a.hadamard(b)
    assert had.values.tolist() == [[2, 3], [3, 0]]
    assert a.add(b).values.tolist() == [[3, 0], [2, 3]]
    with pytest.raises(ParameterError):
        a.hadamard(FieldMatrix(f, np.zeros((1, 1), dtype=int)))
