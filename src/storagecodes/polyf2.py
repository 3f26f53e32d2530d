"""Sparse polynomials over GF(2) in the variables (x1, x2, y1, y2).

A polynomial is the set of its monomials (every present coefficient is 1);
adding a monomial twice cancels it.  Internally the set is a sorted numpy
uint64 array with 16 bits per exponent, packed as

    code = e_x1 << 48 | e_x2 << 32 | e_y1 << 16 | e_y2

so that products are plain integer additions of codes and duplicate
cancellation is one in-place sort and one scan of its runs (``_xor_reduce``).
Operations that would push an exponent past 2^16 - 1 raise BudgetError
instead of corrupting neighbours.

The polynomials the toolkit ranks are Fermat powers of d = (x1+y1)^n + x2 + y2:
the certificate d^(2^t - 1) and the indicator red(d^(q - 1)) of d != 0 on
GF(q)^4.  ``fermat_power`` writes their codes down directly (the expansion has
no cancellation), so neither route forms a product; ``poly_mul`` and
``frobenius`` stay as the general operations, and the product of Frobenius
copies is the reference route in the tests.  rank(p) is the GF(2) rank of
the coefficient matrix, rows (e_x1, e_x2) and columns (e_y1, e_y2); a code
is already that matrix's entry row << 32 | col, so ``coeff_matrix`` wraps p's
array without a copy.  ``SparseBitMatrix.rank`` splits it into connected
blocks and eliminates the blocks of one rounded shape in lockstep.

Give x1 and y1 weight 1 and x2 and y2 weight n.  Every monomial of a power
of d has one total weight, and reduction mod x^q - x keeps it mod q - 1, so
no block of the coefficient matrix crosses two row weights (two classes mod
q - 1).  d is symmetric under (x1, x2) <-> (y1, y2), so both matrices equal
their own transposes, and only a part of the weights has to be ranked:
``certify_unit_rate`` ranks the rows below half the total weight and
doubles the rank, and ``storage.graded_ranks`` ranks one class per orbit of
doubling and negation.  ``fermat_power`` takes keep tables over the row
weights and writes one part per table, the rows of its weights alone, from
one generation of the blocks, so no route lists the rest of the power.
``poly_rank`` of the whole polynomial stays as the general rank and the
reference the tests hold both against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bitmatrix import DENSE_BITS, SparseBitMatrix
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import FieldMatrix, GF2m

EXP_BITS = 16
EXP_MAX = (1 << EXP_BITS) - 1
_SHIFTS = (48, 32, 16, 0)  # x1, x2, y1, y2

#: cap on the codes one product (its monomial pairs) or one fermat_power forms
PAIR_BUDGET = 10 ** 8

#: default cap on certification exponents
DEFAULT_T_MAX = 8

#: certify_unit_rate ranks both halves of d^(2^t - 1), and compares them, up to this t
HALF_CHECK_T_MAX = 7

_EVAL_LOOKUPS = 1 << 31  # cap on the table lookups of one eval_matrix
_RUN_CHUNK = 1 << 14  # codes per pass of the run scan in _xor_reduce


class Monomial(NamedTuple):
    """Exponent 4-tuple of one monomial x1^a x2^b y1^c y2^d."""

    x1: int
    x2: int
    y1: int
    y2: int


def _pack(mon: Monomial | tuple[int, int, int, int]) -> int:
    code = 0
    for e, sh in zip(mon, _SHIFTS):
        if not 0 <= e <= EXP_MAX:
            raise BudgetError(f"exponent {e} outside 0..{EXP_MAX}")
        code |= e << sh
    return code


def _unpack(code: int) -> Monomial:
    return Monomial(*((code >> sh) & EXP_MAX for sh in _SHIFTS))


def _xor_reduce(codes: np.ndarray) -> np.ndarray:
    """The values that occur an odd number of times in codes, sorted and distinct.

    Sorts codes in place, so every caller hands over a fresh array.  A run
    of equal codes ends at index e and starts just after the end of the run
    before it (or at 0), so it has odd length exactly when e and that earlier
    end differ in parity.  The run ends are found _RUN_CHUNK codes at a time
    and the survivors are moved to the front of codes, so beyond codes itself
    only the returned copy grows with the input.
    """
    codes.sort()
    n = codes.size
    kept = 0
    prev = 1  # the parity of -1, the end of the empty run before index 0
    for lo in range(0, n, _RUN_CHUNK):
        hi = min(lo + _RUN_CHUNK, n)
        top = min(hi, n - 1)
        last = np.ones(hi - lo, dtype=bool)  # last[i]: codes[lo + i] ends its run
        np.not_equal(codes[lo:top], codes[lo + 1 : top + 1], out=last[: top - lo])
        ends = np.flatnonzero(last)
        if not ends.size:
            continue
        ends += lo
        parity = ends & 1
        survivors = codes[ends[np.diff(parity, prepend=prev) != 0]]
        prev = parity[-1]
        codes[kept : kept + survivors.size] = survivors  # below hi: scanned codes only
        kept += survivors.size
    return codes[:kept].copy()


class SparsePoly:
    """A polynomial over GF(2) as a sorted, duplicate-free code array."""

    __slots__ = ("_codes",)

    def __init__(self, codes: np.ndarray):
        self._codes = codes  # owned, sorted uint64, no duplicates

    @classmethod
    def from_monomials(cls, monomials: Iterable[tuple[int, int, int, int]]) -> "SparsePoly":
        packed = np.array([_pack(m) for m in monomials], dtype=np.uint64)
        return cls(_xor_reduce(packed))

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls(np.zeros(0, dtype=np.uint64))

    @classmethod
    def one(cls) -> "SparsePoly":
        return cls.from_monomials([(0, 0, 0, 0)])

    def __len__(self) -> int:
        return int(self._codes.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePoly) and np.array_equal(self._codes, other._codes)

    def __repr__(self) -> str:
        return f"SparsePoly({len(self)} monomials)"

    def monomials(self) -> list[Monomial]:
        return [_unpack(int(c)) for c in self._codes]

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        """Sum over GF(2): the symmetric difference of the monomial sets."""
        return SparsePoly(_xor_reduce(np.concatenate([self._codes, other._codes])))

    def max_exponents(self) -> Monomial:
        """Per-variable degree (0 for the zero polynomial)."""
        return Monomial(
            *(int(((self._codes >> np.uint64(sh)) & np.uint64(EXP_MAX)).max(initial=0)) for sh in _SHIFTS)
        )


def poly_mul(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Product over GF(2), with XOR-cancellation of colliding monomials."""
    if len(p) * len(q) > PAIR_BUDGET:
        raise BudgetError(f"product forms {len(p)}x{len(q)} monomial pairs, over budget {PAIR_BUDGET}")
    pe, qe = p.max_exponents(), q.max_exponents()
    if any(a + b > EXP_MAX for a, b in zip(pe, qe)):
        raise BudgetError(f"product exponents would exceed the {EXP_MAX} cap")
    sums = (p._codes[:, None] + q._codes[None, :]).ravel()
    return SparsePoly(_xor_reduce(sums))


def frobenius(p: SparsePoly, i: int) -> SparsePoly:
    """p^(2^i): every exponent multiplied by 2^i, monomial count unchanged."""
    if i < 1:
        raise ParameterError("i must be a positive integer")
    factor = 1 << i
    if any(e * factor > EXP_MAX for e in p.max_exponents()):
        raise BudgetError(f"exponents * 2^{i} would exceed the {EXP_MAX} cap")
    # no field overflows, so scaling every code by 2^i keeps them strictly increasing
    return SparsePoly(p._codes * np.uint64(factor))


def _submasks(mask: int) -> np.ndarray:
    """The submasks of mask in increasing order, as uint64: by Lucas, the j with C(mask, j) odd."""
    out, size = np.zeros(1 << mask.bit_count(), dtype=np.uint64), 1
    while mask:
        low = mask & -mask  # each set bit, lowest first, doubles the list in place
        np.add(out[:size], low, out=out[size : 2 * size])
        mask, size = mask ^ low, 2 * size
    return out


def fermat_power(
    n: int, t: int, m: int | None = None, keep: Sequence[np.ndarray] | None = None
) -> SparsePoly | list[SparsePoly]:
    """d^(2^t - 1), d = (x1+y1)^n + x2 + y2, reduced mod x^q - x (q = 2^m, t <= m) if m is given.

    2^t - 1 has all t bits set, so the power is the product of the copies
    (x1+y1)^(n 2^i) + x2^(2^i) + y2^(2^i), i < t.  Each term gives the bits r
    to the binomial, b to x2 and the rest to y2: x2^b y2^(rest) (x1+y1)^N(r),
    and by Lucas (x1+y1)^N is the sum of x1^j y1^(N - j) over the submasks j
    of N.  The (x2, y2) exponents tell the terms apart, so nothing cancels.
    N(r) = n r, or with m given ((n r - 1) mod (q - 1)) + 1 (0 at r = 0), its
    exponent on GF(q).  The size of the whole power is checked before one
    array is filled.

    keep, a sequence of bool tables over row weights, makes one part per
    table, in order: the rows (j, b) whose weight w has the table set, w =
    j + n b (n (2^t - 1) + 1 entries), or (j + (n mod (q - 1)) b) mod (q - 1)
    when reducing (q - 1 entries).  A table of another length raises
    ParameterError before any block is listed.  The blocks r are generated
    twice, however many tables there are: to count each part's codes, then to
    fill one array of exactly that size per part.  Without keep the whole
    power is returned, as one SparsePoly.
    """
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"n={n}: need an odd integer >= 1")
    if t < 1 or m is not None and t > m:
        raise ParameterError(f"t={t}: need t >= 1, and t <= m when reducing")
    full = (1 << t) - 1
    top = n * full if m is None else (1 << m) - 1
    if top > EXP_MAX:  # before anything is listed
        raise BudgetError(f"exponent {top} outside 0..{EXP_MAX}")
    # row weight j + (n b mod period); unreduced n b <= top, so period = top + 1 leaves it whole
    weigh, period = np.uint64(n if m is None else n % top), np.uint64(top + 1 if m is None else top)
    if keep is not None and any(len(table) != period for table in keep):
        raise ParameterError(f"a keep table needs {period} entries, one per row weight")
    if m is None:
        exps = [n * r for r in range(full + 1)]
    else:  # top = q - 1; Python ints keep any n exact
        exps = [0] + [(n % top * r - 1) % top + 1 for r in range(1, full + 1)]
    size = sum(1 << (e.bit_count() + t - r.bit_count()) for r, e in enumerate(exps))
    if size > PAIR_BUDGET:
        raise BudgetError(f"d^{full} has {size} monomials, over budget {PAIR_BUDGET}")
    tables = np.array([np.ones(period)] if keep is None else keep, dtype=bool).reshape(-1, period)
    if m is not None:  # j + (n b mod (q - 1)) < 2 (q - 1): each table is read twice over
        tables = np.concatenate([tables, tables], axis=1)

    def blocks():  # per r: e = N(r), submasks j of e and b of full ^ r, and the tables at w of each (j, b)
        for r, e in enumerate(exps):
            j, b = _submasks(e), _submasks(full ^ r)
            yield r, e, j, b, tables[:, j[:, None] + b * weigh % period]

    counts = np.array([[np.count_nonzero(rows) for rows in kept] for *_, kept in blocks()])  # per r and part
    ends = counts.cumsum(axis=0)  # where the rows of each r end in each part
    parts = [np.empty(size, dtype=np.uint64) for size in ends[-1]]
    for (r, e, j, b, kept), stops, sizes in zip(blocks(), ends, counts):  # x1^j y1^(e-j) x2^b y2^(full^r-b)
        block = (j << 48 | (e - j) << 16)[:, None] | (b << 32 | (full ^ r) - b)
        for codes, rows, stop, size in zip(parts, kept, stops, sizes):
            np.compress(rows.ravel(), block, out=codes[stop - size : stop])
    for codes in parts:
        codes.sort()
    return SparsePoly(parts[0]) if keep is None else [SparsePoly(codes) for codes in parts]


def substitute(p: SparsePoly, n: int, m: int) -> SparsePoly:
    """p(x1, x2 + x1^n, y1, y2 + y1^n) mod x^q - x, for p reduced mod x^q - x, q = 2^m.

    Bit i of x2 at a time, x2^(2^i) -> x2^(2^i) + x1^(n 2^i): a monomial with the bit set
    gains a copy without it and with e_x1 = ((e_x1 + n 2^i - 1) mod (q - 1)) + 1; then y2, y1.
    """
    period, codes = (1 << m) - 1, p._codes
    for var, base in ((32, 48), (0, 16)):
        for i in range(m):
            hit = codes[(codes >> (var + i) & 1) == 1]
            e = (hit >> base & EXP_MAX) + ((n << i) % period + period - 1)  # Python ints for any n
            hit &= ~np.uint64(EXP_MAX << base | 1 << (var + i))
            hit |= (e % period + 1) << base
            codes = _xor_reduce(np.concatenate([codes, hit]))
    return SparsePoly(codes)


def coeff_matrix(p: SparsePoly) -> SparseBitMatrix:
    """One 1-entry per monomial, its code: row (e_x1, e_x2), column (e_y1, e_y2); no copy."""
    return SparseBitMatrix(p._codes)


def poly_rank(p: SparsePoly) -> int:
    """GF(2) rank of the coefficient matrix, ranked block by block."""
    return coeff_matrix(p).rank()


def eval_matrix(p: SparsePoly, field: GF2m) -> FieldMatrix:
    """The q^2 x q^2 matrix of values p(x1, x2, y1, y2) over GF(2^m).

    Entries are field elements, so the result is a FieldMatrix and its
    ``.rank()`` is the rank over the field.  Work is |monomials| * q^4
    table lookups, capped at 2^31; the 8 * q^4-byte int64
    accumulator is capped by the byte-per-bit cap ``DENSE_BITS`` of
    bitmatrix, which stops m >= 7 before anything is allocated.
    """
    q = field.q
    n_vert = q * q
    if len(p) * n_vert * n_vert > _EVAL_LOOKUPS:
        raise BudgetError(
            f"evaluating {len(p)} monomials on a {n_vert}x{n_vert} grid exceeds the budget"
        )
    if 8 * n_vert * n_vert > DENSE_BITS:
        raise BudgetError(
            f"a {n_vert}x{n_vert} int64 evaluation matrix exceeds the {DENSE_BITS}-byte cap"
        )
    ids = np.arange(n_vert, dtype=np.int64)
    hi = ids >> field.m
    lo = ids & (q - 1)
    base = np.arange(q, dtype=np.int64)
    acc = np.zeros((n_vert, n_vert), dtype=np.int64)
    for mon in p.monomials():
        u = field.mul_vec(field.pow_vec(base, mon.x1)[hi], field.pow_vec(base, mon.x2)[lo])
        v = field.mul_vec(field.pow_vec(base, mon.y1)[hi], field.pow_vec(base, mon.y2)[lo])
        acc ^= field.outer_mul(u, v)
    return FieldMatrix(field, acc)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of the low-rank certification search for one exponent n.

    trace holds one (t, rank, threshold) row per exponent tried, and t,
    poly_rank, threshold and certified read its last row.  certified means
    rank(d^(2^t - 1)) < 4^t at that t, which bounds the evaluation-matrix
    rank of every larger member of the family by a vanishing fraction of its
    size via the factorisation of 2^m - 1 into blocks of t doublings.
    c_constant is the largest rank seen at the earlier exponents 0 <= i < t
    (the multiplier of the resulting bound), or at 0 <= i <= t if uncertified.
    """

    n: int
    trace: tuple[tuple[int, int, int], ...]  # (t, rank, threshold)
    c_constant: int

    @property
    def t(self) -> int:
        return self.trace[-1][0]

    @property
    def poly_rank(self) -> int:
        return self.trace[-1][1]

    @property
    def threshold(self) -> int:
        return self.trace[-1][2]

    @property
    def certified(self) -> bool:
        return self.poly_rank < self.threshold


def _certificate_rank(n: int, t: int) -> int:
    """rank(d^(2^t - 1)): twice the rank of its rows of weight below T/2, T = n (2^t - 1).

    d is symmetric under (x1, x2) <-> (y1, y2), so the coefficient matrix of
    its power is its own transpose.  Every monomial has weight T (x1, y1
    weigh 1, x2, y2 weigh n), so the rows of weight w meet only the columns
    of weight T - w, and they are the transpose of the rows of weight T - w.
    T is odd, so no weight pairs with itself.  Only the low half is
    generated and ranked; up to HALF_CHECK_T_MAX the rows above T/2 are then
    generated and ranked as well, and a different rank raises
    PropertyViolation.
    """
    total = n * ((1 << t) - 1)
    low = 2 * np.arange(total + 1) < total
    rank = poly_rank(fermat_power(n, t, keep=[low])[0])
    if t <= HALF_CHECK_T_MAX and (high_rank := poly_rank(fermat_power(n, t, keep=[~low])[0])) != rank:
        raise PropertyViolation(
            f"n={n} t={t}: the rows of weight below {total}/2 have rank {rank}, those above {high_rank}"
        )
    return 2 * rank


def certify_unit_rate(n: int, t_max: int = DEFAULT_T_MAX) -> CertificationResult:
    """Search t = 1..t_max for rank(d^(2^t - 1)) < 4^t, d = (x1+y1)^n + x2 + y2.

    Stops at the first certifying t.  n = 1 is allowed here (the degenerate
    base certifies immediately at t = 1); the graph family itself starts at
    n = 3.  Each rank is twice that of the power's low half
    (``_certificate_rank``); up to ``HALF_CHECK_T_MAX`` the high half is
    ranked too, and halves of different rank raise PropertyViolation.  A
    power over ``PAIR_BUDGET`` codes or past the exponent cap raises
    BudgetError, which carries the ranks already computed in ``trace``.
    """
    if t_max < 1:
        raise ParameterError("t_max must be a positive integer")
    trace: list[tuple[int, int, int]] = []
    try:
        for t in range(1, t_max + 1):
            trace.append((t, _certificate_rank(n, t), 4 ** t))
            if trace[-1][1] < trace[-1][2]:
                break
    except BudgetError as err:
        err.trace = tuple(trace)
        raise
    # the rank at i = 0 (the constant polynomial) is 1; only a certifying row has rank < threshold
    c_constant = max([1] + [rank for _, rank, threshold in trace if rank >= threshold])
    return CertificationResult(n=n, trace=tuple(trace), c_constant=c_constant)
