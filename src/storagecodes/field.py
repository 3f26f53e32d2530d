"""GF(2^m) arithmetic in the polynomial basis.

Field elements are plain Python ints: bit i of the int is the coefficient
of x^i.  Addition is XOR (never wrapped in a function here); multiplication
is carry-less multiplication reduced modulo a fixed irreducible polynomial,
stored as an (m+1)-bit int with the leading bit set.

The default modulus for each degree is the smallest irreducible polynomial
in integer order among those with constant term 1, for example:

    m=1 : x + 1            -> 0b11
    m=2 : x^2 + x + 1      -> 0b111
    m=3 : x^3 + x + 1      -> 0b1011
    m=4 : x^4 + x + 1      -> 0b10011

Any other irreducible modulus of the same degree gives an isomorphic field,
and every rank computed downstream is independent of the choice (the
isomorphism permutes matrix rows and columns); this is covered by tests.

FieldMatrix is a small dense matrix with entries in GF(2^m).  It exists for
evaluation matrices of polynomials, whose entries are field values rather
than bits, and carries its own Gaussian elimination over the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_DEGREE = 16


def poly_degree(p: int) -> int:
    """Degree of a polynomial over GF(2) encoded as an int (deg 0 for p=1)."""
    if p <= 0:
        raise ParameterError(f"not a nonzero polynomial: {p}")
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b (b != 0)."""
    db = poly_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg(p)//2."""
    d = poly_degree(p)
    if d == 0:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if poly_degree(q) >= 1 and poly_mod(p, q) == 0:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Smallest irreducible polynomial of degree m with constant term 1.

    Constant term 1 is required so that x never divides the modulus; this
    also pins the m=1 choice to x+1.  The result is deterministic.
    """
    return next(irreducible_polynomials(m))


def irreducible_polynomials(m: int):
    """All irreducible degree-m polynomials with constant term 1, ascending."""
    if not 1 <= m <= MAX_DEGREE:
        raise ParameterError(f"degree m={m} outside 1..{MAX_DEGREE}")
    for p in range((1 << m) | 1, 1 << (m + 1), 2):
        if is_irreducible(p):
            yield p


class GF2m:
    """The field GF(2^m) with a fixed irreducible modulus.

    Parameters
    ----------
    m : int
        Extension degree, 1 <= m <= 16.
    modulus : int, optional
        Irreducible polynomial of degree m (leading bit set, constant
        term 1).  Defaults to ``smallest_irreducible(m)``.
    """

    def __init__(self, m: int, modulus: int | None = None) -> None:
        if not 1 <= m <= MAX_DEGREE:
            raise ParameterError(f"degree m={m} outside 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = smallest_irreducible(m)
        else:
            if poly_degree(modulus) != m or not modulus & 1:
                raise ParameterError(
                    f"modulus {bin(modulus)} is not a degree-{m} polynomial with constant term 1"
                )
            if not is_irreducible(modulus):
                raise ParameterError(f"modulus {bin(modulus)} is reducible")
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={bin(self.modulus)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2m) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def check_element(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ParameterError(f"{a!r} is not an element of GF(2^{self.m})")
        return int(a)

    def elements(self) -> range:
        return range(self.q)

    def mul(self, a: int, b: int) -> int:
        """Carry-less product of a and b reduced modulo the field modulus."""
        a = self.check_element(a)
        b = self.check_element(b)
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
            b >>= 1
        return r

    def pow(self, a: int, e: int) -> int:
        """a**e by square and multiply; pow(0, 0) is defined as 1."""
        a = self.check_element(a)
        if e < 0:
            raise ParameterError("negative exponent")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ParameterError("zero has no inverse")
        return self.pow(a, self.q - 2)

    # ------------------------------------------------------------------
    # Vectorised arithmetic via discrete-log tables.  The generator is the
    # smallest element whose powers exhaust the nonzero field; the tables
    # depend only on (m, modulus), so results stay deterministic.
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        q = self.q
        for g in range(2, q):
            v = 1
            order = 0
            while True:
                v = self.mul(v, g)
                order += 1
                if v == 1:
                    break
            if order == q - 1:
                break
        else:
            g = 1  # only for q=2
        exp = np.zeros(2 * (q - 1) if q > 2 else 2, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        v = 1
        for i in range(max(q - 1, 1)):
            exp[i] = v
            log[v] = i
            v = self.mul(v, g)
        exp[max(q - 1, 1):] = exp[: len(exp) - max(q - 1, 1)]
        self._exp, self._log = exp, log

    @property
    def exp_table(self) -> np.ndarray:
        if self._exp is None:
            self._build_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        if self._log is None:
            self._build_tables()
        return self._log

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field product of two int arrays (broadcasting)."""
        exp, log = self.exp_table, self.log_table
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = exp[log[a] + log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_vec(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a**e; agrees with the scalar pow (including 0**0 = 1)."""
        if e < 0:
            raise ParameterError("negative exponent")
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.ones_like(a)
        exp, log = self.exp_table, self.log_table
        e_red = e % (self.q - 1)  # valid for nonzero bases; zeros are masked below
        out = exp[(log[a] * e_red) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def outer_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Outer field product table u[i] * v[j]."""
        exp, log = self.exp_table, self.log_table
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        out = exp[log[u][:, None] + log[v][None, :]]
        out[u == 0, :] = 0
        out[:, v == 0] = 0
        return out


@dataclass(frozen=True)
class FieldMatrix:
    """Dense matrix with entries in a GF2m field, stored as element codes."""

    field: GF2m
    values: np.ndarray  # int64, shape (rows, cols), entries < field.q

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 2:
            raise ParameterError("FieldMatrix needs a 2-d array")
        if v.size and (v.min() < 0 or v.max() >= self.field.q):
            raise ParameterError("entry out of field range")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and np.array_equal(self.values, other.values)
        )

    def hadamard(self, other: "FieldMatrix") -> "FieldMatrix":
        """Entrywise field product (the field analogue of bitwise AND)."""
        if self.field != other.field or self.shape != other.shape:
            raise ParameterError("hadamard needs equal fields and shapes")
        return FieldMatrix(self.field, self.field.mul_vec(self.values, other.values))

    def add(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.field != other.field or self.shape != other.shape:
            raise ParameterError("add needs equal fields and shapes")
        return FieldMatrix(self.field, self.values ^ other.values)

    def rank(self) -> int:
        """Rank over GF(2^m) by Gaussian elimination with the log tables."""
        f = self.field
        V = self.values.copy()
        rows, cols = V.shape
        if rows == 0 or cols == 0:
            return 0
        exp, log = f.exp_table, f.log_table
        r = 0
        for c in range(cols):
            nz = np.nonzero(V[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                V[[r, p]] = V[[p, r]]
            piv = int(V[r, c])
            if piv != 1:
                V[r] = f.mul_vec(V[r], np.int64(f.inv(piv)))
            fac = V[r + 1 :, c]
            hit = np.nonzero(fac)[0]
            if hit.size:
                prod = exp[log[fac[hit]][:, None] + log[V[r]][None, :]]
                prod[:, V[r] == 0] = 0
                V[r + 1 :][hit] ^= prod
            r += 1
            if r == rows:
                break
        return r
