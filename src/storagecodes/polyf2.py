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
the certificate d^(2^t - 1) and W = red(d^(q - 1)), the indicator of d != 0
on GF(q)^4.  The expansion has no cancellation, so neither route forms a
product: ``fermat_power`` writes the codes of W down directly, and
``_certificate_rank`` lists each entry of the certificate as its weight
class, row and column; ``poly_mul`` and ``frobenius`` stay as the general
operations, and the product of Frobenius copies is the reference route in
the tests.  rank(p) is the GF(2) rank of the coefficient matrix, rows
(e_x1, e_x2) and columns (e_y1, e_y2); a code is already that matrix's
entry row << 32 | col, so ``coeff_matrix`` wraps p's array without a copy.

Both are ranked by weight.  Give x1 and y1 weight 1 and x2 and y2 weight n.
Every monomial of d^(2^t - 1) has weight T = n (2^t - 1), and reduction mod
x^q - x keeps weights mod q - 1, so every monomial of W has weight 0 mod
q - 1.  The rows of weight w therefore meet only the columns of weight T - w
(class -w for W), and the rank is the sum over the row weights.  Inside a
class the weight names a row by its x2 exponent (up to x1 in {0, q - 1}
for W) and a column by its y2 exponent, so one route serves both:
``_class_ranks`` marks the occupied rows and columns of each class, fills
each class as one block of the block-stack layout of ``bitmatrix`` and
eliminates the blocks of one rounded shape in lockstep.  No block is
searched for.  Two symmetries leave most weights unranked.  d is symmetric
under (x1, x2) <-> (y1, y2), so both matrices equal their own transposes,
which take row weight w to T - w (class w to -w); and W is a 0/1 function,
so W = W^2, which takes class w to class 2w.  ``_certificate_rank`` ranks
the rows below T/2 and doubles the rank, and ``graded_ranks`` ranks one
class per orbit of w -> 2w and w -> -w on Z/(q - 1), times the orbit size,
for W, 1 + W and D, W substituted (``substitute`` keeps each class and both
symmetries), one part at a time (``_part_rank``).  ``graded_ranks`` writes
its parts in one ``fermat_power`` call that takes keep tables over the row
weights, and the certificate lists only the entries of its classes, so no
route lists the rest of the power.  Each checks a symmetry by ranking a
part it could skip: the high half up to HALF_CHECK_T_MAX, and class 2 of W
beside class 1.  ``poly_rank`` of any polynomial stays as the general
rank: ``SparseBitMatrix.rank`` sets its occupied rows and columns as one
block of the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .bitmatrix import DENSE_BITS, SparseBitMatrix, _BlockStacks, _block_layout, _set_bits
from .errors import BudgetError, ParameterError, PropertyViolation

if TYPE_CHECKING:
    from .field import FieldMatrix, GF2m

EXP_BITS = 16
EXP_MAX = (1 << EXP_BITS) - 1
_SHIFTS = (48, 32, 16, 0)  # x1, x2, y1, y2

#: cap on the codes one product (its monomial pairs) or one Fermat power forms
PAIR_BUDGET = 10 ** 8

#: default cap on certification exponents
DEFAULT_T_MAX = 8

#: certify_unit_rate ranks both halves of d^(2^t - 1), and compares them, up to this t
HALF_CHECK_T_MAX = 7

#: stack bits of the class blocks that _certificate_rank fills and ranks at a time (64 MiB)
CLASS_BITS = 1 << 29

_EVAL_LOOKUPS = 1 << 31  # cap on the table lookups of one eval_matrix
_RUN_CHUNK = 1 << 14  # codes per pass of the run scan in _xor_reduce
_BATCH = 1 << 11  # the fewest entries the batch buffer of _power_entries holds


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


def _binomial_exponents(n: int, t: int, m: int | None = None) -> tuple[int, list[int]]:
    """The period P of the row weights and N(r), r < 2^t, after the parameter, EXP_MAX and PAIR_BUDGET checks."""
    if n < 1 or n % 2 == 0:
        raise ParameterError(f"n={n}: need an odd integer >= 1")
    if t < 1 or m is not None and t > m:
        raise ParameterError(f"t={t}: need t >= 1, and t <= m when reducing")
    full = (1 << t) - 1
    period = n * full + 1 if m is None else (1 << m) - 1
    top = period - 1 if m is None else period  # the largest exponent
    if top > EXP_MAX:  # before anything is listed
        raise BudgetError(f"exponent {top} outside 0..{EXP_MAX}")
    exps = [0] + [(n * r - 1) % period + 1 for r in range(1, full + 1)]  # Python ints keep any n exact
    size = sum(1 << (e.bit_count() + t - r.bit_count()) for r, e in enumerate(exps))
    if size > PAIR_BUDGET:
        raise BudgetError(f"d^{full} has {size} monomials, over budget {PAIR_BUDGET}")
    return period, exps


def fermat_power(
    n: int, t: int, m: int | None = None, keep: Sequence[np.ndarray] | None = None
) -> SparsePoly | list[SparsePoly]:
    """d^(2^t - 1), d = (x1+y1)^n + x2 + y2, reduced mod x^q - x (q = 2^m, t <= m) if m is given.

    2^t - 1 has all t bits set, so the power is the product of the copies
    (x1+y1)^(n 2^i) + x2^(2^i) + y2^(2^i), i < t.  Each term gives the bits r
    to the binomial, b to x2 and the rest to y2: x2^b y2^(rest) (x1+y1)^N(r),
    and by Lucas (x1+y1)^N is the sum of x1^j y1^(N - j) over the submasks j
    of N.  The (x2, y2) exponents tell the terms apart, so nothing cancels.

    Row weights j + n b live in Z/P, P = n (2^t - 1) + 1 unreduced and
    P = q - 1 reduced, and N(r) = ((n r - 1) mod P) + 1 for r > 0, N(0) = 0.
    Reduced, that is the exponent x^(n r) takes on GF(q).  Unreduced,
    n r <= n (2^t - 1) < P, so the rule never wraps and N(r) = n r.  The
    largest exponent and the size of the whole power are checked before one
    array is filled.

    keep, a sequence of bool tables of P entries, makes one part per table,
    in order: the rows (j, b) whose weight (j + n b) mod P has the table set.
    A table of another length raises ParameterError before any block is
    listed.  The blocks r are generated twice, however many tables there
    are: to count each part's codes, then to fill one array of exactly that
    size per part.  Without keep the whole power is returned, as one
    SparsePoly.
    """
    period, exps = _binomial_exponents(n, t, m)
    if keep is not None and any(len(table) != period for table in keep):
        raise ParameterError(f"a keep table needs {period} entries, one per row weight")
    full = (1 << t) - 1
    tables = np.array([np.ones(period)] if keep is None else keep, dtype=bool).reshape(-1, period)
    tables = np.concatenate([tables, tables], axis=1)  # j + (n b mod P) < 2 P: read twice over
    weigh, period = np.uint64(n % period), np.uint64(period)  # row weight j + (weigh b mod P)

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


def _certificate_rank(n: int, t: int) -> int:
    """rank(d^(2^t - 1)): twice the rank of its rows of weight below T/2, T = n (2^t - 1).

    The rows of weight w are the transpose of those of weight T - w, and T
    is odd, so no weight pairs with itself.  A row (j, b) of weight w has
    j = w - n b, so in class w a row is fixed by b and a column by its y2
    exponent c, with r = full ^ b ^ c:

        M_w[b, c] = [b & c = 0] [w - n b >= 0] [(w - n b) submask of n (full ^ b ^ c)]

    No code is formed: the entries come as (w, b, c) batches
    (``_power_entries``) and go to ``_class_ranks`` keyed by class w, row b
    and column c.  Up to HALF_CHECK_T_MAX the same batches also key the rows
    above T/2, each class T - w as the transpose of class w, and a different
    rank of that half raises PropertyViolation.  Past it the passes list
    little more than the low half.  The exponent cap and PAIR_BUDGET are
    checked first, as by ``fermat_power``.
    """
    _, exps = _binomial_exponents(n, t)
    total = n * ((1 << t) - 1)
    both = t <= HALF_CHECK_T_MAX

    def batches():  # the high half keys an entry as its transpose: class T - w, row c, column b
        for w, b, c in _power_entries(n, t, exps, total if both else total // 2):
            yield [(w, b, c), (total - w, c, b)] if both else [(w, b, c)]

    ranks = _class_ranks(batches, 1 + both, total // 2 + 1, t)
    if both and ranks[1] != ranks[0]:
        raise PropertyViolation(
            f"n={n} t={t}: the rows of weight below {total}/2 have rank {ranks[0]}, those above {ranks[1]}"
        )
    return 2 * ranks[0]


def _class_ranks(batches, halves: int, classes: int, t: int) -> list[int]:
    """The GF(2) ranks of `halves` matrices, ranked side by side, whose rows of class w meet one class of columns.

    The matrices are the two halves of a certificate, or one part of a code
    report.  batches() yields their entries a batch at a time, as one
    (class, row key, column key) triple of int64 arrays per matrix; keys
    are below 2^t, and entries of a class at or past classes are skipped.
    A count pass marks the occupied rows and columns of every class, one
    bit each (``_Keys``): the local index of a row or column in its class is
    the number of marks of the class below it, so no entry is sorted and no
    block is searched for.  Each class is one block of the stack layout of
    ``bitmatrix`` (``_BlockStacks``).  The classes, in order of shape, go in
    buckets of at most CLASS_BITS stack bits (``_buckets``); per bucket a
    fill pass writes every entry as one bit of its stack, and the stacks are
    ranked.  The halves share their shapes, so the buckets follow the first.
    """
    keys = [(_Keys(classes, t), _Keys(classes, t)) for _ in range(halves)]  # its rows and its columns
    slot = np.append(np.arange(classes), -1)  # the place of a class in its pass, or -1; clipped reads give -1
    for batch in batches():
        for (rows, cols), (cls, row, col) in zip(keys, batch):
            kept = slot.take(cls, mode="clip") >= 0
            cls = cls[kept]
            rows.mark(cls, row[kept])
            cols.mark(cls, col[kept])
    for rows, cols in keys:
        rows.index()
        cols.index()
    ranks = [0] * halves
    for bucket in _buckets(keys[0][0].sizes, keys[0][1].sizes):
        slot.fill(-1)
        slot[bucket] = np.arange(bucket.size)
        blocks = [_BlockStacks(rows.sizes[bucket], cols.sizes[bucket]) for rows, cols in keys]
        for batch in batches():
            for (rows, cols), half, (cls, row, col) in zip(keys, blocks, batch):
                k = slot.take(cls, mode="clip")
                kept = k >= 0
                cls = cls[kept]
                half.fill(k[kept], rows.local(cls, row[kept]), cols.local(cls, col[kept]))
        for h, half in enumerate(blocks):
            ranks[h] += half.rank()
        del blocks  # before the next bucket's are allocated
    return ranks


def _power_entries(n: int, t: int, exps: list[int], top: int):
    """The entries of d^(2^t - 1) of row weight at most top, and some above it, in batches.

    Blocks come r by r as ``fermat_power`` lists them.  A batch is a
    (3, entries) int64 view (w, b, c): the row weight w = j + n b over the
    submasks j of N(r) and b of full ^ r, b, and the y2 exponent
    c = full ^ r ^ b of the column.  Blocks are cut into slices of whole j
    and written into one buffer, which the next batch overwrites, of
    max(_BATCH, 2^(t + 3)) entries: eight times the widest slice, so that
    the work per batch grows with the blocks while the buffer stays small
    beside the class blocks.  j and b ascend, so a slice lists only the b
    with n b <= top - (its least j), and a block ends at the first slice
    with none.  The exponents are checked, so every value fits int64.
    """
    full = (1 << t) - 1
    batch = np.empty((3, max(_BATCH, 8 << t)), dtype=np.int64)
    size = 0
    for r, e in enumerate(exps):
        j, b = _submasks(e).astype(np.int64), _submasks(full ^ r).astype(np.int64)
        nb = n * b
        step = batch.shape[1] // b.size  # the j of one slice
        for k in range(0, j.size, step):
            rows, cut = min(step, j.size - k), int(np.searchsorted(nb, top - j[k], side="right"))
            if cut == 0:
                break
            if size + rows * cut > batch.shape[1]:
                yield batch[:, :size]
                size = 0
            w, bs, cs = batch[:, size : size + rows * cut].reshape(3, rows, cut)
            np.add(j[k : k + rows, None], nb[:cut], out=w)
            bs[:] = b[:cut]
            cs[:] = full ^ r ^ b[:cut]
            size += rows * cut
    yield batch[:, :size]


class _Keys:
    """The occupied (class, key) pairs of the rows or the columns of a half, one bit at class << t | key each.

    ``mark`` sets bits.  ``index`` then counts the marks before every word
    and every class, so that the local index of a key, its place among the
    keys of its class, is the number of marks from the class's first bit to
    its own, and ``sizes`` is the number of keys of each class.
    """

    def __init__(self, classes: int, t: int):
        self.t, self.classes = t, classes
        self.bits = np.zeros(((classes << t) >> 6) + 1, dtype=np.uint64)  # a spare word for the end

    def mark(self, cls: np.ndarray, key: np.ndarray) -> None:
        _set_bits(self.bits, cls << self.t | key)

    def index(self) -> None:
        counts = np.bitwise_count(self.bits)
        self.before = np.cumsum(counts, dtype=np.int32) - counts  # the marks before each word, < PAIR_BUDGET
        self.first = self._below(np.arange(self.classes + 1, dtype=np.int64) << self.t).astype(np.int64)
        self.sizes = np.diff(self.first)

    def _below(self, pos: np.ndarray) -> np.ndarray:
        word = pos >> 6
        low = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64)) - np.uint64(1)
        return self.before[word] + np.bitwise_count(self.bits[word] & low)

    def local(self, cls: np.ndarray, key: np.ndarray) -> np.ndarray:
        return self._below(cls << self.t | key) - self.first[cls]


def _buckets(rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """The classes in order of block shape, cut into runs of at most CLASS_BITS stack bits, or one class.

    A class is one block of the shared stack layout (``_block_layout``).
    Cutting the shape order, not the weight order, splits at most one stack
    per cut.
    """
    _, shape, bits = _block_layout(rows, cols)
    order = np.argsort(shape, kind="stable")
    order = order[bits[order] > 0]  # the classes with entries
    cum = np.cumsum(bits[order])
    buckets, lo = [], 0
    while lo < order.size:
        base = int(cum[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(cum, base + CLASS_BITS, side="right")), lo + 1)
        buckets.append(order[lo:hi])
        lo = hi
    return buckets


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

    W is red(d^(q-1)) and D is W substituted.  Each rank is the sum over the
    orbits of w -> 2w and w -> -w on Z/(q - 1) of the orbit size times the
    rank of its least class, and 1 + W differs from W in class 0 alone.  One
    fermat_power call writes every part of _orbit_parts and class 2 of W,
    each alone (one keep table per part), so the whole of W is never listed.
    Every part is ranked by its classes (``_part_rank``).  For m >= 2 a rank
    of class 2 other than that of class 1 raises PropertyViolation.
    """
    period = (1 << m) - 1
    sizes, keeps = zip(*_orbit_parts(m))
    *parts, class_2 = fermat_power(n, m, m, [*keeps, np.arange(period) == 2])
    ranks_w = [_part_rank(p, n, m) for p in parts]
    if period > 1 and (rank_2 := _part_rank(class_2, n, m)) != ranks_w[1]:
        raise PropertyViolation(f"n={n} m={m}: class 2 of W has rank {rank_2}, class 1 {ranks_w[1]}")
    rank_w = sum(size * rank for size, rank in zip(sizes, ranks_w))
    rank_h = rank_w - ranks_w[0] + _part_rank(parts[0] + SparsePoly.one(), n, m)
    rank_d = sum(size * _part_rank(substitute(p, n, m), n, m) for size, p in zip(sizes, parts))
    return rank_h, rank_w, rank_d


def _part_rank(p: SparsePoly, n: int, m: int) -> int:
    """rank(p) for p reduced mod x^q - x, q = 2^m, with every monomial of weight 0 mod q - 1.

    A row (x1, x2) of class w = (x1 + n x2) mod (q - 1) meets only the
    columns of class -w, and inside its class it is fixed by x2 up to
    x1 in {0, q - 1}: its key is x2 * 2 + [x1 = q - 1], and a column's
    y2 * 2 + [y1 = q - 1].  One batch of these keys, made from p's codes,
    goes to ``_class_ranks``.
    """
    period = (1 << m) - 1
    x1, x2, y1, y2 = ((p._codes >> np.uint64(sh) & np.uint64(EXP_MAX)).astype(np.int64) for sh in _SHIFTS)
    batch = [((x1 + n % period * x2) % period, x2 << 1 | (x1 == period), y2 << 1 | (y1 == period))]
    return _class_ranks(lambda: [batch], 1, period, m + 1)[0]


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
    """GF(2) rank of the coefficient matrix, its occupied rows and columns ranked as one block."""
    return coeff_matrix(p).rank()


def eval_matrix(p: SparsePoly, field: GF2m) -> FieldMatrix:
    """The q^2 x q^2 matrix of values p(x1, x2, y1, y2) over GF(2^m).

    Entries are field elements, so the result is a FieldMatrix and its
    ``.rank()`` is the rank over the field.  Work is |monomials| * q^4
    table lookups, capped at 2^31; the 8 * q^4-byte int64
    accumulator is capped by the byte-per-bit cap ``DENSE_BITS`` of
    bitmatrix, which stops m >= 7 before anything is allocated.
    """
    from .field import FieldMatrix  # here, so that certificates never load field

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


def certify_unit_rate(n: int, t_max: int = DEFAULT_T_MAX) -> CertificationResult:
    """Search t = 1..t_max for rank(d^(2^t - 1)) < 4^t, d = (x1+y1)^n + x2 + y2.

    Stops at the first certifying t.  n = 1 is allowed here (the degenerate
    base certifies immediately at t = 1); the graph family itself starts at
    n = 3.  Each rank is twice that of the power's low half, written
    straight into the bit blocks of its weight classes and ranked class by
    class, with no code array (``_certificate_rank``); up to
    ``HALF_CHECK_T_MAX`` the high half is ranked too, and halves of
    different rank raise PropertyViolation.  A power over ``PAIR_BUDGET``
    monomials or past the exponent cap raises BudgetError before any entry
    is listed, and the error carries the ranks already computed in
    ``trace``.
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

