"""Dense bit-packed linear algebra over GF(2).

A BitMatrix stores each row in little-endian 64-bit words: bit j of row i
lives in ``words[i, j >> 6]`` at position ``j & 63``.  Trailing pad bits are
kept zero, so whole-word XOR/AND/popcount never need masking.

Rank and kernel share one forward elimination of a copy, run in 64-column
strips in the manner of the Method of Four Russians (M4RI; Albrecht, Bard
and Hart, ACM TOMS 36(2), 2010).  For each word the live rows' copies of that
word form one contiguous uint64 vector, and the strip's pivots (first
nonzero row for each column) are found there; each row records, as a 64-bit
tag, which pivot rows it took.  The trailing words of every live row are
then updated once per strip, by gathers from tables of all XORs of 8 pivot
rows indexed by the tag bytes, and the pivot rows and the rows that came out
zero stop being live.  Scratch is one working copy plus fixed-size pieces:
the trailing words go in column panels whose tables fit 256 KiB, and each
panel in row blocks of 128 KiB.  A 30000 x 30000 instance fits in desk-scale
time and memory (the packed words for that size are ~112 MB).  The kernel
is read off the elimination of [M^T | 0 | I].  Results are deterministic and
the input matrix is never modified.

Text dump format (also used by the CLI ``--dump`` option):

    line 1:     "<rows> <cols>"
    lines 2..:  one hex string per row, ceil(cols/4) digits; digit k encodes
                columns 4k..4k+3, with column 4k in the least significant
                bit of the digit.

``BitMatrix.load`` accepts exactly this format and nothing else.

SparseBitMatrix holds only the positions of 1-entries, in one uint64 array
of entries row << 32 | col (a coefficient matrix holds the polynomial's own
monomial codes); a position listed twice is still one 1-entry.  Ranks are
invariant under dropping all-zero rows and columns, so ``compact`` maps the
occupied rows and columns, in sorted order, onto a dense BitMatrix.
``rank`` splits the matrix into the connected components of its row-column
graph instead: the matrix is block diagonal up to a permutation, so its
rank is the sum of the block ranks.  The component pass also gives every
entry its block and its row and column within the block, so no block is
compacted.  Every block, one-row and one-column blocks included, takes one
path: the blocks whose shapes round up to the same multiples of 8 are
packed into one (blocks, rows, words) stack and eliminated in lockstep, one
Python iteration per column for the whole stack (the certificate
coefficient matrices for n = 11 and 13 at t = 7 hold 1548 and 1822 blocks
in 46 and 35 stacks).  The
component pass labels rows and columns in int32, and each entry becomes one
int64 bit position in the stacks laid end to end, so besides the 8 bytes of
the entry itself ``rank`` holds about 24 bytes per entry: a tracemalloc
peak of 2.44 MB for the 84192 entries of n = 13 at t = 7.  The dense
``BitMatrix`` elimination stays separate: it is the independent route that
the block ranks are checked against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import BudgetError, ParameterError

WORD = 64
MAX_BITS = 1 << 33  # rows * cols cap; 2^33 bits = 1 GiB packed
DENSE_BITS = 1 << 28  # byte cap for dense expansions (one byte per bit) and polyf2.eval_matrix
_TABLE_WORDS = 1 << 15  # XOR-table words per column panel of a strip update (256 KiB)
_BLOCK_WORDS = 1 << 14  # words per row block of a strip update (128 KiB)
_DUMP_ROWS = 512  # rows per block of the hex dump
_MAX_ENTRIES = 1 << 30  # SparseBitMatrix.rank labels its rows and columns, together, in int32
_LOW = np.uint64(0xFFFFFFFF)  # the column half of a SparseBitMatrix entry


def _words_per_row(cols: int) -> int:
    return (cols + WORD - 1) // WORD


def _int_to_words(value: int, cols: int) -> np.ndarray:
    w = _words_per_row(cols)
    raw = value.to_bytes(w * 8, "little")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


class BitMatrix:
    """A rows x cols matrix over GF(2), packed 64 columns per word."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ParameterError("negative dimension")
        if rows * cols > MAX_BITS:
            raise BudgetError(f"matrix of {rows}x{cols} bits exceeds the {MAX_BITS}-bit cap")
        self.rows = rows
        self.cols = cols
        w = _words_per_row(cols)
        if words is None:
            words = np.zeros((rows, w), dtype=np.uint64)
        else:
            if words.shape != (rows, w) or words.dtype != np.uint64:
                raise ParameterError("word buffer has the wrong shape or dtype")
        self.words = words

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_dense(cls, arr) -> "BitMatrix":
        """Build from a 2-d array of 0/1 values."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ParameterError("need a 2-d array")
        rows, cols = a.shape
        m = cls(rows, cols)
        packed = np.packbits(a.astype(bool), axis=1, bitorder="little")
        buf = np.zeros((rows, _words_per_row(cols) * 8), dtype=np.uint8)
        buf[:, : packed.shape[1]] = packed
        m.words = np.ascontiguousarray(buf).view("<u8").astype(np.uint64)
        return m

    @classmethod
    def from_row_ints(cls, row_values: Iterable[int], cols: int) -> "BitMatrix":
        """Build from little-endian row integers (bit j = column j)."""
        vals = list(row_values)
        m = cls(len(vals), cols)
        for i, v in enumerate(vals):
            if v < 0 or v >> cols:
                raise ParameterError(f"row {i} does not fit in {cols} columns")
            m.words[i] = _int_to_words(v, cols)
        return m

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "BitMatrix":
        return cls.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    # -- accessors ------------------------------------------------------

    def _mask_pad(self) -> None:
        rem = self.cols & 63
        if rem and self.words.size:
            self.words[:, -1] &= (np.uint64(1) << np.uint64(rem)) - np.uint64(1)

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ParameterError("index out of range")
        return int(self.words[i, j >> 6] >> np.uint64(j & 63)) & 1

    def row_int(self, i: int) -> int:
        return int.from_bytes(self.words[i].tobytes(), "little")

    def to_dense(self) -> np.ndarray:
        if self.rows * self.cols > DENSE_BITS:
            raise BudgetError("dense expansion beyond the byte-per-bit cap")
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and np.array_equal(self.words, other.words)
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    # -- elementwise ops ------------------------------------------------

    def complement(self) -> "BitMatrix":
        """Entrywise complement: self + J over GF(2)."""
        out = BitMatrix(self.rows, self.cols, ~self.words)
        out._mask_pad()
        return out

    def hadamard(self, other: "BitMatrix") -> "BitMatrix":
        """Entrywise product, i.e. bitwise AND."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ParameterError("dimension mismatch")
        return BitMatrix(self.rows, self.cols, self.words & other.words)

    def tensor(self, other: "BitMatrix") -> "BitMatrix":
        """Kronecker product: block (i1, j1) equals self[i1,j1] * other."""
        if self.rows * other.rows * self.cols * other.cols > DENSE_BITS:
            raise BudgetError("tensor result exceeds the byte-per-bit cap")
        return BitMatrix.from_dense(np.kron(self.to_dense(), other.to_dense()))

    # -- elimination ----------------------------------------------------

    @staticmethod
    def _echelon(M: np.ndarray) -> tuple[list[int], list[int]]:
        """Forward elimination of the word array M, in place; returns (rows, pivot columns).

        Afterwards row rows[i] of M has its leading 1 in column pivots[i], and
        every other row is zero.  The elimination runs one 64-column strip at
        a time (``_strip_pivots``, ``_xor_tables``): each strip finds its
        pivots in one word per live row, then updates the trailing words of
        every live row once, and drops the pivot rows and the rows that came
        out zero.  A strip that is zero in every live row is skipped, and the
        loop ends once no row is live.
        """
        W = M.shape[1]
        live = np.flatnonzero(M.any(axis=1))  # rows that may still take a pivot
        rows: list[int] = []
        pivots: list[int] = []
        for w in range(W):
            if live.size == 0:
                break
            s = M[live, w]
            nz = s.nonzero()[0]
            if nz.size == 0:
                continue
            strip_rows, s = live[nz], s[nz]
            tags, prow, pbit = _strip_pivots(s)
            M[strip_rows, w] = s  # pivot rows keep their word, all others are cleared
            keep = np.ones(live.size, dtype=bool)
            keep[nz] = False
            if w + 1 < W:
                pivot_rows = M[strip_rows[prow]]
                tag_bytes = tags.view(np.uint8).reshape(-1, 8)
                nonzero = np.zeros(nz.size, dtype=bool)
                # the trailing words go in panels narrow enough for their tables to fit _TABLE_WORDS
                panel = min(W - w - 1, _TABLE_WORDS // (256 * -(-len(prow) // 8)))
                block_rows = _BLOCK_WORDS // panel
                for c0 in range(w + 1, W, panel):
                    cs = slice(c0, c0 + panel)
                    tables = _xor_tables(pivot_rows[:, cs])
                    for b0 in range(0, nz.size, block_rows):
                        bs = slice(b0, b0 + block_rows)
                        block = strip_rows[bs]
                        X = M[block, cs]
                        for g, table in enumerate(tables):
                            X ^= np.take(table, tag_bytes[bs, g], axis=0)
                        M[block, cs] = X
                        nonzero[bs] |= X.any(axis=1)
                nonzero[prow] = False
                keep[nz] = nonzero
            rows.extend(strip_rows[prow].tolist())
            pivots.extend((w << 6) + b for b in pbit)
            live = live[keep]
        return rows, pivots

    def rank(self) -> int:
        """Rank over GF(2).  The matrix itself is left untouched."""
        return len(self._echelon(self.words.copy())[1])

    def kernel_basis(self) -> list[int]:
        """A basis of {v : M v = 0}, as little-endian bit ints.

        Returns cols - rank vectors, read off one ``_echelon`` of
        [M^T | 0 | I] whose identity half starts on a word boundary.  Each
        row of the result is a sum of rows of [M^T | I], and its identity
        half v names them; a row whose pivot falls in the identity half has
        M^T half v^T M^T = 0, and these rows are independent by their
        distinct pivots.
        """
        left = _words_per_row(self.rows) * WORD
        aug = BitMatrix(self.cols, left + self.cols)
        octets = aug.words.view(np.uint8)  # byte k of a row holds columns 8k..8k+7
        for w in range(self.words.shape[1]):  # the columns in word w of M are rows 64w.. of M^T
            bits = np.unpackbits(self.words[:, w : w + 1].view(np.uint8), axis=1, bitorder="little")
            block = np.packbits(bits[:, : self.cols - (w << 6)].T, axis=1, bitorder="little")
            octets[w << 6 : (w << 6) + block.shape[0], : block.shape[1]] = block
        j = np.arange(self.cols)
        aug.words[j, (left + j) >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
        rows, pivots = self._echelon(aug.words)
        half = aug.words[:, left // WORD :]
        return [int.from_bytes(half[r].tobytes(), "little") for r, c in zip(rows, pivots) if c >= left]

    # -- text dump ------------------------------------------------------

    def dump(self, fh) -> None:
        """Write the documented hex dump format to a text stream."""
        fh.write(f"{self.rows} {self.cols}\n")
        digits = (self.cols + 3) // 4
        line = np.empty((_DUMP_ROWS, digits + 1), dtype=np.uint8)
        line[:, digits] = ord("\n")
        for r0 in range(0, self.rows, _DUMP_ROWS):
            # byte j of a row holds columns 8j..8j+7: its low nibble is digit 2j
            octets = self.words[r0 : r0 + _DUMP_ROWS].view(np.uint8)
            out = line[: octets.shape[0]]
            out[:, 0:digits:2] = _HEX[octets[:, : (digits + 1) // 2] & 15]
            out[:, 1:digits:2] = _HEX[octets[:, : digits // 2] >> 4]
            fh.write(out.tobytes().decode("ascii"))

    @classmethod
    def load(cls, fh) -> "BitMatrix":
        """Read the dump format back; anything but an exact dump is rejected.

        Raises BudgetError for a header over MAX_BITS, before any row is
        read, and ParameterError for a header that is not two non-negative
        integers, missing rows, a row that is not exactly ceil(cols/4) hex
        digits or sets a pad bit, and non-blank text after the last row.
        """
        header = fh.readline().split()
        if len(header) != 2 or not all(h.isascii() and h.isdigit() for h in header):
            raise ParameterError("dump header is not two non-negative integers")
        rows, cols = int(header[0]), int(header[1])
        if rows * cols > MAX_BITS:  # refused before a row is read
            raise BudgetError(f"dump of {rows}x{cols} bits exceeds the {MAX_BITS}-bit cap")
        digits = (cols + 3) // 4
        vals = []
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise ParameterError(f"dump ends after {i} of {rows} rows")
            line = line.rstrip("\n")
            if len(line) != digits or not _HEX_DIGITS.issuperset(line):
                raise ParameterError(f"row {i} is not {digits} hex digits")
            vals.append(int(line[::-1], 16) if digits else 0)
        if fh.read().strip():
            raise ParameterError(f"text after the last of {rows} rows")
        return cls.from_row_ints(vals, cols)


def _strip_pivots(s: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """Eliminate one 64-column strip in place; returns (tags, pivot rows, pivot bits).

    s holds the strip word of each row.  Pivot k is the first row with bit
    pbit[k] set among the rows not yet pivots; it is XORed into every other
    such row with that bit, and bit k of a row's tag records it.  A row's
    tag thus names the pivot rows, as they were on entry, whose XOR turns the
    row on entry into the row on return.  On return the pivot rows hold
    their reduced words and every other row of s is zero.
    """
    tags = np.zeros(s.size, dtype="<u8")  # little-endian, so byte g of a tag is view byte g
    hit = np.empty_like(s)
    sel = np.empty_like(s)
    signed = hit.view(np.int64)
    prow: list[int] = []
    pbit: list[int] = []
    pval, ptag = [], []
    seen = int(np.bitwise_or.reduce(s))
    while seen:  # the lowest bit any non-pivot row holds is the next pivot column
        b = (seen & -seen).bit_length() - 1
        np.left_shift(s, np.uint64(63 - b), out=hit)
        np.right_shift(signed, 63, out=signed)  # all ones in the rows with bit b
        p = int(signed.argmin())
        sp, tp = s[p], tags[p]
        np.bitwise_and(hit, sp, out=sel)
        s ^= sel  # clears bit b in every hit row, and all of the pivot row
        np.bitwise_and(hit, tp | np.uint64(1 << len(prow)), out=sel)
        tags ^= sel
        prow.append(p)
        pbit.append(b)
        pval.append(sp)
        ptag.append(tp)
        seen = int(np.bitwise_or.reduce(s))
    s[prow] = pval
    tags[prow] = ptag
    return tags, prow, pbit


def _xor_tables(pivot_rows: np.ndarray) -> list[np.ndarray]:
    """One table per 8 pivot rows: entry e of table g is the XOR of the rows 8g + j, j in e."""
    tables = []
    for g in range(0, pivot_rows.shape[0], 8):
        group = pivot_rows[g : g + 8]
        table = np.zeros((1 << group.shape[0], pivot_rows.shape[1]), dtype=np.uint64)
        for j, row in enumerate(group):
            np.bitwise_xor(table[: 1 << j], row, out=table[1 << j : 2 << j])
        tables.append(table)
    return tables


class SparseBitMatrix:
    """Positions of the 1-entries of a 0/1 matrix, as one uint64 array.

    Entry k sits at row ``entries[k] >> 32`` and column
    ``entries[k] & (2^32 - 1)``, so rows and columns are ints below 2^32 and
    integer order on entries is lexicographic order on (row, column).  This
    is the layout of a ``polyf2.SparsePoly`` code, whose high half is
    (e_x1, e_x2) and low half (e_y1, e_y2).  The array is held, not copied.
    A position listed twice is still a single 1-entry.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray):
        if np.ndim(entries) != 1:
            raise ParameterError("entries must be a 1-d array")
        self._entries = np.asarray(entries, dtype=np.uint64)

    @property
    def nnz(self) -> int:
        """Number of listed positions."""
        return int(self._entries.size)

    def compact(self) -> BitMatrix:
        """Dense matrix on the occupied rows/columns, in sorted order.

        Dropping the untouched all-zero rows and columns does not change the
        rank, and the sorted order makes the result reproducible.
        """
        urows, ridx = np.unique(self._entries >> np.uint64(32), return_inverse=True)
        ucols, cidx = np.unique(self._entries & _LOW, return_inverse=True)
        R, C = int(urows.size), int(ucols.size)
        out = BitMatrix(R, C)
        w = out.words.reshape(-1)
        flat = ridx.astype(np.int64) * out.words.shape[1] + (cidx >> 6).astype(np.int64)
        bits = np.uint64(1) << (cidx.astype(np.uint64) & np.uint64(63))
        np.bitwise_or.at(w, flat, bits)
        return out

    def rank(self) -> int:
        """GF(2) rank, summed over the connected blocks of the row-column graph.

        Rows and columns in different components share no entry, so permuting
        them makes the matrix block diagonal and the rank is the sum of the
        block ranks.  Every block is packed, by the row and column indices of
        the component pass, into a stack of the blocks of its shape rounded up
        to multiples of 8, and each stack is eliminated in lockstep
        (``_stack_rank``).  The stacks are laid end to end as one bit space, so
        every entry is one int64 bit position there; sorting the positions
        groups the entries by stack.  Besides the entries, the pass holds at
        most about 24 bytes per entry, in int32 labels that are dropped once
        used.
        """
        if self.nnz == 0:
            return 0
        if self.nnz >= _MAX_ENTRIES:
            raise BudgetError(f"{self.nnz} entries exceed the {_MAX_ENTRIES}-entry cap of rank")
        r, R = _dense_labels(self._entries >> np.uint64(32))
        c, C = _dense_labels(self._entries & _LOW)
        c += R  # rows are nodes 0..R-1, columns R..R+C-1
        label = _least_node_labels(r, c, R + C)
        # number the components 0..K-1 in order of their least nodes
        comp = np.cumsum(label == np.arange(R + C, dtype=np.int32), dtype=np.int32)
        K = int(comp[-1])
        comp -= 1
        comp = comp[label]
        del label
        rows_in = np.bincount(comp[:R], minlength=K)
        cols_in = np.bincount(comp[R:], minlength=K)
        # blocks: the components in order of shape rounded up to multiples of 8, then of least node
        shape = ((rows_in + 7) >> 3) << 32 | ((cols_in + 7) >> 3)
        by_shape = np.argsort(shape, kind="stable")
        block = np.empty(K, dtype=np.int32)
        block[by_shape] = np.arange(K, dtype=np.int32)
        node = block[comp]
        del comp, block
        # the local index of a node is its position among its block's nodes of its kind
        local = np.empty(R + C, dtype=np.int32)
        local[:R] = _rank_within(node[:R], rows_in[by_shape])
        local[R:] = _rank_within(node[R:], cols_in[by_shape])
        shape = shape[by_shape]
        # a stack holds a run of blocks of one shape, found by one scan of the
        # sorted shapes; each block is its rows of whole words.  The stacks span
        # below R * C + 2^40 < 2^61 bits, so positions fit int64.
        edges = np.flatnonzero(np.diff(shape, prepend=-1, append=-1)).tolist()
        stacks = []  # (blocks, rows, cols, words, first bit)
        row_bits = np.empty(K, dtype=np.int64)  # bits per row of a block
        first_bit = np.empty(K, dtype=np.int64)  # the first bit of a block
        bit = 0
        for b0, b1 in zip(edges, edges[1:]):
            rows, cols = int(shape[b0] >> 32) << 3, int(shape[b0] & 0xFFFFFFFF) << 3
            words = (cols + WORD - 1) // WORD
            stacks.append((b1 - b0, rows, cols, words, bit))
            row_bits[b0:b1] = words * WORD
            first_bit[b0:b1] = bit + np.arange(b1 - b0) * (rows * words * WORD)
            bit += (b1 - b0) * rows * words * WORD
        # the position of entry (row, col) is its row's first bit plus its column's local index
        row_bit = local[:R] * row_bits[node[:R]]
        row_bit += first_bit[node[:R]]
        del node, row_bits, first_bit
        pos = row_bit[r]
        del r, row_bit
        pos += local[c]
        del c, local
        pos.sort()
        at = np.searchsorted(pos, [s[4] for s in stacks] + [bit]).tolist()
        total = 0
        for (blocks, rows, cols, words, start), lo, hi in zip(stacks, at, at[1:]):
            stack = np.zeros((blocks, rows, words), dtype=np.uint64)
            word = pos[lo:hi] - start
            mask = (word & (WORD - 1)).view(np.uint64)
            np.left_shift(np.uint64(1), mask, out=mask)
            word >>= 6
            np.bitwise_or.at(stack.reshape(-1), word, mask)
            del word, mask
            total += _stack_rank(stack, cols)
        return total


def _dense_labels(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """The int32 rank of each key among the distinct keys, and their number."""
    order = np.argsort(keys)
    ordered = keys[order]
    step = ordered[1:] != ordered[:-1]
    del ordered
    labels = np.zeros(keys.size, dtype=np.int32)
    np.cumsum(step, dtype=np.int32, out=labels[1:])
    del step
    out = np.empty_like(labels)
    out[order] = labels
    return out, int(labels[-1]) + 1


def _least_node_labels(r: np.ndarray, c: np.ndarray, nodes: int) -> np.ndarray:
    """The least node of the component of every node, for edges r[k] -- c[k].

    Min-label propagation with one pointer jump per round: labels only
    decrease and stay inside their component, so the fixpoint gives each
    component one label, its least node.
    """
    label = np.arange(nodes, dtype=np.int32)
    while True:
        low = label[r]
        np.minimum(low, label[c], out=low)
        new = label.copy()
        np.minimum.at(new, r, low)
        np.minimum.at(new, c, low)
        del low
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _rank_within(group: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements share its group.

    counts[g] is the size of group g, and group ids and indices are below
    2^31; the result has group's dtype.  Sorting the packed pairs
    (group, index) orders the elements as a stable argsort would, in a
    fraction of its time.
    """
    order = group.astype(np.int64) << 32
    order |= np.arange(group.size)
    order.sort()
    order &= 0xFFFFFFFF
    ranks = (np.cumsum(counts) - counts).astype(group.dtype)[group[order]]
    np.subtract(np.arange(group.size, dtype=group.dtype), ranks, out=ranks)
    out = np.empty_like(group)
    out[order] = ranks
    return out


def _stack_rank(M: np.ndarray, cols: int) -> int:
    """Sum of the ranks of the blocks M[b] of a (blocks, rows, words) stack.

    The stack is eliminated in place, one column at a time for all blocks at
    once: each block takes the first hit at or below its pivot count as its
    pivot, swaps it into the pivot slot and XORs it into its other hits.
    """
    B, R, _ = M.shape
    piv = np.zeros(B, dtype=np.int64)
    blocks = np.arange(B)
    slots = np.arange(R)
    one = np.uint64(1)
    for col in range(cols):
        lo = int(piv.min())
        if lo == R:
            break
        hit = ((M[:, lo:, col >> 6] >> np.uint64(col & 63)) & one).astype(bool)
        hit &= slots[lo:] >= piv[:, None]
        first = hit.argmax(axis=1)
        has = hit[blocks, first]
        if not has.any():
            continue
        b = blocks[has]
        p, f = piv[b], first[has] + lo
        hit[b, f - lo] = False  # the pivot itself: after the swap that slot holds the old pivot-slot row
        M[b, p], M[b, f] = M[b, f], M[b, p]
        hb, hr = np.nonzero(hit)
        if hb.size:
            M[hb, hr + lo] ^= M[hb, piv[hb]]
        piv[b] += 1
    return int(piv.sum())
