"""Carry-free combinatorics behind the monomial-count sequence N_m.

Binomial and multinomial parities in characteristic 2 reduce to statements
about binary digits: a multinomial coefficient is odd exactly when the parts
add without carries.  Writing ``a + b lessdot c`` for "a_i + b_i <= c_i in
every binary digit", the monomial-count machinery is

    b_set(s, r)      the set {2^r * l1 + l2 : l1 + l2 lessdot s}
    count_nm(m, r)   sum of |b_set(s, r)| over 0 <= s < 2^m

Both walk each b-set as Python-int bitmasks: set bit j of a mask for a low
part ``low < 2^r`` stands for the value ``low + (j << r)``, each set bit of s
widens the masks by shift-ORs that also deduplicate, and ``int.bit_count``
gives the sizes, so count_nm never builds a set of values.

For r = 1 the sequence count_nm(m, 1) also satisfies two recurrences and a
closed form in Z[sqrt(2)]; all three are implemented and cross-checked in
tests.  Everything here is exact integer arithmetic, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError

#: cost cap for direct enumeration: count_nm(m, r) covers the 4^m digit
#: assignments (s, l1, l2) with s < 2^m, as set bits of shifted masks
ENUMERATION_BUDGET = 4 ** 14

#: b_set(s, r) decodes masks 2^(k+1) bits wide for s of k bits; cap k here
_B_SET_MAX_BITS = 24


def _b_values(s: int, r: int) -> list[tuple[int, int]]:
    # b_set(s, r) as (low, mask) pairs: v = low + (j << r) for each set bit j
    # of mask.  v mod 2^r = l2 mod 2^r, so each submask `low` of s's bits
    # below r gets one mask of the values v >> r, at most 2^(k+1) bits wide
    # for k = s.bit_length().  A bit i >= r adds {0, 2^i (in l1), 2^(i-r)
    # (in l2)} to v >> r; the shift-OR does the deduplication.
    mask = 1
    for i in range(r, s.bit_length()):
        if (s >> i) & 1:
            mask |= (mask << (1 << i)) | (mask << (1 << (i - r)))
    # A bit i < r goes to low (in l2), or adds {0, 2^i (in l1)} to v >> r.
    pairs = [(0, mask)]
    for i in range(min(r, s.bit_length())):
        if (s >> i) & 1:
            bit = 1 << i
            pairs = [p for low, w in pairs for p in ((low | bit, w), (low, w | (w << bit)))]
    return pairs


def _b_size(s: int, r: int) -> int:
    """|b_set(s, r)|, counted as set bits of the masks."""
    return sum(w.bit_count() for _, w in _b_values(s, r))


def _bit_positions(w: int) -> list[int]:
    raw = np.frombuffer(w.to_bytes((w.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def b_set(s: int, r: int = 1) -> list[int]:
    """Sorted elements of {2^r * l1 + l2 : l1 + l2 lessdot s}.

    Raises BudgetError for s of more than 24 bits, whose masks would be over
    2^25 bits wide.
    """
    if s < 0:
        raise ParameterError("s must be non-negative")
    if r < 1:
        raise ParameterError("r must be a positive integer")
    if s.bit_length() > _B_SET_MAX_BITS:
        raise BudgetError(f"b_set(s) needs masks 2^{s.bit_length() + 1} bits wide, over 2^{_B_SET_MAX_BITS + 1}")
    return sorted(low + (j << r) for low, w in _b_values(s, r) for j in _bit_positions(w))


def count_nm(m: int, r: int = 1) -> int:
    """N_m = sum over s < 2^m of |b_set(s, r)|, by direct enumeration."""
    if m < 0:
        raise ParameterError("m must be non-negative")
    if r < 1:
        raise ParameterError("r must be a positive integer")
    if 4 ** m > ENUMERATION_BUDGET:
        raise BudgetError(f"count_nm(m={m}) covers 4^{m} digit assignments (s, l1, l2), over budget {ENUMERATION_BUDGET}")
    return sum(_b_size(s, r) for s in range(1 << m))


def nm_recurrence(m: int) -> int:
    """N_m for r=1 via N_m = 4 N_{m-1} - 2 N_{m-2}, seeded N_{-1}=0, N_0=1 (so N_1=4)."""
    if m < 0:
        raise ParameterError("m must be non-negative")
    prev, cur = 0, 1
    for _ in range(m):
        prev, cur = cur, 4 * cur - 2 * prev
    return cur


def nm_long_recurrence(m: int) -> int:
    """N_m for r=1 via the convolution N_m = sum_{j=1}^{m+1} (2^j - 1) N_{m-j}.

    Seeds N_0 = N_{-1} = 1.  Agrees with nm_recurrence for every m >= 1.
    """
    if m < 1:
        raise ParameterError("m must be a positive integer")
    seq = [1, 1]  # N_{-1}, N_0 at offsets 0, 1
    for k in range(1, m + 1):
        seq.append(sum(((1 << j) - 1) * seq[k - j + 1] for j in range(1, k + 2)))
    return seq[m + 1]


@dataclass(frozen=True)
class Zsqrt2:
    """Exact element u + v*sqrt(2) of Z[sqrt(2)]."""

    u: int
    v: int

    def __add__(self, other: "Zsqrt2") -> "Zsqrt2":
        return Zsqrt2(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "Zsqrt2") -> "Zsqrt2":
        return Zsqrt2(self.u - other.u, self.v - other.v)

    def __mul__(self, other: "Zsqrt2") -> "Zsqrt2":
        return Zsqrt2(
            self.u * other.u + 2 * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def __pow__(self, e: int) -> "Zsqrt2":
        if e < 0:
            raise ParameterError("negative power")
        r = Zsqrt2(1, 0)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def sign(self) -> int:
        """Sign of u + v*sqrt(2), decided purely on integers.

        For mixed signs compare u^2 with 2 v^2; they are equal only at 0
        because sqrt(2) is irrational.
        """
        u, v = self.u, self.v
        if u >= 0 and v >= 0:
            return 1 if (u or v) else 0
        if u <= 0 and v <= 0:
            return -1
        if u > 0:  # v < 0
            return 1 if u * u > 2 * v * v else -1
        return 1 if 2 * v * v > u * u else -1  # u < 0, v > 0

    def __le__(self, other: "Zsqrt2") -> bool:
        return (self - other).sign() <= 0

    def __repr__(self) -> str:
        return f"{self.u}{self.v:+d}*sqrt(2)"


def nm_closed_form(m: int) -> int:
    """N_m for r=1 from the closed form in Z[sqrt(2)].

    With (2 + sqrt(2))^m = u + v*sqrt(2), the two conjugate terms of the
    closed form collapse to the integer u + 2v.
    """
    if m < 0:
        raise ParameterError("m must be non-negative")
    p = Zsqrt2(2, 1) ** m
    return p.u + 2 * p.v


def nm_growth_bound_holds(m: int, value: int) -> bool:
    """Exact check of 2*N_m <= (1 + sqrt(2)) * (2 + sqrt(2))^m in Z[sqrt(2)].

    This is the r=1 growth bound with the 1/2 factor cleared; the conjugate
    term it drops is positive, so the inequality holds for every m.
    """
    lhs = Zsqrt2(2 * value, 0)
    rhs = Zsqrt2(1, 1) * (Zsqrt2(2, 1) ** m)
    return lhs <= rhs


def fifteen_sixteenths_bound(m: int, r: int) -> int:
    """The exact integer 15^t * 4^(m - 2t) with t = floor(m / (r+1)).

    Equals (15/16)^t * 4^m; the t-fold product bound that the real-exponent
    form (15/16)^(m/(r+1)) * 4^m is derived from.
    """
    if m < 0 or r < 1:
        raise ParameterError("need m >= 0 and r >= 1")
    t = m // (r + 1)
    return 15 ** t * 4 ** (m - 2 * t)


def nm_bound(m: int, r: int) -> tuple[int, bool]:
    """(N_m, bound_holds) with every comparison done in exact integers.

    bound_holds checks N_m * 16^t <= 15^t * 4^m for t = floor(m / (r+1)),
    the floor-weakened form of the (15/16)^(m/(r+1)) bound; for r = 1 the
    Z[sqrt(2)] growth bound is required to hold as well.
    """
    value = count_nm(m, r)
    holds = value <= fifteen_sixteenths_bound(m, r)
    if r == 1:
        holds = holds and nm_growth_bound_holds(m, value)
    return value, holds
