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
is read off the elimination of [M^T | 0 | I].  Results are deterministic,
and the matrix is left untouched, except by ``rank(overwrite=True)``: it
eliminates the matrix's own words and takes no copy, for a caller that
reads the matrix no more.

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
compacted.  A block of one row or one column has rank 1 and is counted
without a stack.  The other blocks go into one block-stack layout
(``_BlockStacks``), which the certificate route of ``polyf2`` fills with
its weight classes too: a block wider than it is tall, and wider than a
word, is laid out along its long side, and the blocks whose laid-out
shapes round up to the same multiples of 8 form one (blocks, rows, words)
stack, eliminated in lockstep (``_stack_rank``), one 64-column strip at a
time as ``BitMatrix._echelon`` does: one masked pivot search per bit of a
strip word, for every block of a run at once, then one update of the
trailing words per strip.  The component pass labels rows and columns
in int32, and the stacks are filled straight from each entry's block and
local row and column.  Apart from in-place sorts, every pass over the
entries or the nodes goes ``_CHUNK`` at a time.  So on certificate
coefficient matrices, with about 3 rows and columns to every 4 entries,
``rank`` holds under 20 bytes per entry besides the 8 of the entry itself
(tests hold the 84192 entries of n = 13 at t = 7 and the low half of
n = 19 at t = 9).  The dense ``BitMatrix`` elimination stays separate: it
is the independent route that the block ranks are checked against.
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
_DUMP_ROWS = 64  # rows per block of the hex dump, so its temporaries stay far below one matrix
_CHUNK = 1 << 12  # entries or nodes per chunk of SparseBitMatrix.rank's passes over them
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

    def invert(self) -> None:
        """Complement every entry in place."""
        np.invert(self.words, out=self.words)
        self._mask_pad()

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

    def rank(self, overwrite: bool = False) -> int:
        """Rank over GF(2).

        The matrix is left untouched unless overwrite is true: then its own
        words are eliminated, with no copy, and hold an echelon form up to
        the order of the rows afterwards.
        """
        return len(self._echelon(self.words if overwrite else self.words.copy())[1])

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
        _set_bits(out.words.reshape(-1), ridx.astype(np.int64) * (out.words.shape[1] * WORD) + cidx)
        return out

    def rank(self) -> int:
        """GF(2) rank, summed over the connected blocks of the row-column graph.

        Rows and columns in different components share no entry, so permuting
        them makes the matrix block diagonal and the rank is the sum of the
        block ranks.  A block of one row or one column has rank 1 and takes no
        stack.  Every other block is a block of one ``_BlockStacks`` layout,
        filled a chunk of entries at a time from the block, row and column
        indices of the component pass, and each stack of the layout is
        eliminated in lockstep (``_stack_rank``).  Besides the entries, the
        rank holds 8 bytes per entry, its int32 row and column labels, about
        12 bytes per row or column, the stacks, and temporaries of ``_CHUNK``
        items: under 20 bytes per entry on the certificate matrices.
        """
        if self.nnz == 0:
            return 0
        if self.nnz >= _MAX_ENTRIES:
            raise BudgetError(f"{self.nnz} entries exceed the {_MAX_ENTRIES}-entry cap of rank")
        N = self.nnz
        r = np.empty(N, dtype=np.int32)
        c = np.empty(N, dtype=np.int32)
        R = _dense_labels(self._entries & ~_LOW, r)
        C = _dense_labels(self._entries << np.uint64(32), c)
        c += R  # rows are nodes 0..R-1, columns R..R+C-1
        label = _least_node_labels(r, c, R + C)
        # number the components 0..K-1 in order of their least nodes, the
        # labels' values, and write each node's component over its label
        number = np.zeros(R + C, dtype=np.int32)
        number[label] = 1
        np.cumsum(number, out=number)
        K = int(number[-1])
        number -= 1
        comp = label
        for s in _chunks(R + C):
            comp[s] = number[comp[s]]
        del label, number
        rows_in = np.bincount(comp[:R], minlength=K)
        cols_in = np.bincount(comp[R:], minlength=K)
        # a block of one row or one column has rank 1 and takes no stack; the
        # others are numbered in order, and every row gets its block's number,
        # or -1, before its component is overwritten
        stacked = (rows_in > 1) & (cols_in > 1)
        row_block = np.where(stacked, np.cumsum(stacked, dtype=np.int32) - 1, -1)[comp[:R]]
        # the local index of a node, its place among its block's nodes of its
        # kind, replaces its component
        local = comp
        _rank_within(comp[R:], cols_in, local[R:])
        _rank_within(comp[:R], rows_in, local[:R])
        stacks = _BlockStacks(rows_in[stacked], cols_in[stacked])
        del rows_in, cols_in
        for s in _chunks(N):
            rs, cs = r[s], c[s]
            k = row_block[rs]
            kept = k >= 0
            stacks.fill(k[kept], local[rs[kept]], local[cs[kept]])
        del r, c, row_block, local
        return K - int(np.count_nonzero(stacked)) + stacks.rank()


def _chunks(size: int):
    """Slices of at most _CHUNK items that cover range(size), in order."""
    return (slice(k, min(k + _CHUNK, size)) for k in range(0, size, _CHUNK))


def _sort_with_index(pairs: np.ndarray) -> None:
    """Write each element's index into the low 32 bits of pairs, then sort pairs.

    The high bits hold a key and the low 32 bits are zero on entry; once
    sorted, the pairs list the keys in order, each with the indices of the
    elements that hold it in increasing order, as a stable argsort would.
    """
    for s in _chunks(pairs.size):
        pairs[s] |= np.arange(s.start, s.stop, dtype=pairs.dtype)
    pairs.sort()


def _dense_labels(pairs: np.ndarray, out: np.ndarray) -> int:
    """Write the rank of each key among the distinct keys into out; return their number.

    pairs is a uint64 array with each element's key in its high 32 bits and
    zeros below, and is used up by ``_sort_with_index``; the ranks are then
    counted along the sorted pairs a chunk at a time.
    """
    _sort_with_index(pairs)
    distinct = 0  # the distinct keys before the chunk
    for s in _chunks(pairs.size):
        pair = pairs[s]
        key = pair >> np.uint64(32)
        rank = np.ones(key.size, dtype=np.int32)
        np.not_equal(key[1:], key[:-1], out=rank[1:])
        if s.start:
            rank[0] = key[0] != pairs[s.start - 1] >> np.uint64(32)
        np.cumsum(rank, out=rank)
        rank += distinct - 1
        out[pair & _LOW] = rank
        distinct = int(rank[-1]) + 1
    return distinct


def _least_node_labels(r: np.ndarray, c: np.ndarray, nodes: int) -> np.ndarray:
    """The least node of the component of every node, for edges r[k] -- c[k].

    Min-label propagation with one pointer jump per round: labels only
    decrease and stay inside their component, so the fixpoint gives each
    component one label, its least node.  A round that lowers no label
    leaves each component one label that labels itself, so the jump would
    change nothing and the propagation stops there.  The edges are read a
    chunk at a time.
    """
    label = np.arange(nodes, dtype=np.int32)
    while True:
        new = label.copy()
        for s in _chunks(r.size):
            rs, cs = r[s], c[s]
            low = label[rs]
            np.minimum(low, label[cs], out=low)
            np.minimum.at(new, rs, low)
            np.minimum.at(new, cs, low)
        if np.array_equal(new, label):
            return label
        del label
        label = new[new]


def _rank_within(group: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Write into out, for each element, how many earlier elements share its group.

    counts[g] is the size of group g, and group ids and indices are below
    2^31.  Sorting the packed pairs (group, index) orders the elements as a
    stable argsort would, in a fraction of its time; the pairs are read
    back a chunk at a time.  out may be group itself.
    """
    order = np.left_shift(group, 32, dtype=np.int64)
    _sort_with_index(order)
    first = np.cumsum(counts) - counts  # the first place of each group in the order
    for s in _chunks(group.size):
        pair = order[s]
        index = pair & 0xFFFFFFFF
        pair >>= 32
        out[index] = np.arange(s.start, s.stop) - first[pair]


def _stack_rank(M: np.ndarray) -> int:
    """Sum of the ranks of the blocks M[b] of a (blocks, rows, words) stack.

    The stack is eliminated in place, one 64-column strip at a time, for a
    run of blocks of at most _BLOCK_WORDS rows at once.  Pivot k of a strip
    is taken at the lowest bit that some row of the run still holds: each
    block with a row holding it takes its first such row as its pivot k and
    XORs it into each of its rows with the bit, itself included.  So the
    strip ends zero in every row, a pivot row leaves as zero, and the rank
    is the number of pivots.  Bit k of a row's tag records that it took
    pivot k, as the pivot row stood when the strip began, and the trailing
    words are updated once per strip from the tags (``_stack_update``).
    This is the strip step of ``BitMatrix._echelon`` in code of its own, so
    that the dense rank stays an independent route.
    """
    B, R, W = M.shape
    run = max(1, _BLOCK_WORDS // R)
    rank = 0
    for b0 in range(0, B, run):
        stack = M[b0 : b0 + run]
        n = stack.shape[0]
        first = np.arange(n) * R  # the flat index of each block's row 0
        hit = np.empty((n, R), dtype=np.uint64)
        sel = np.empty_like(hit)
        signed = hit.view(np.int64)
        for w in range(W):
            s = np.ascontiguousarray(stack[:, :, w])  # a view of a one-word stack
            seen = int(np.bitwise_or.reduce(s, axis=None))
            if not seen:
                continue
            trailing = w + 1 < W  # only then are tags and pivot rows kept
            if trailing:
                tags = np.zeros((n, R), dtype="<u8")  # byte g of a tag is view byte g
                pivot = np.zeros((WORD, n), dtype=np.int64)  # the row of each block's pivot k, if it took one
            k = 0
            while seen:  # every bit some row holds is in seen; its lowest, if still held, is pivot k's column
                b = (seen & -seen).bit_length() - 1
                np.left_shift(s, np.uint64(63 - b), out=hit)
                np.right_shift(signed, 63, out=signed)  # all ones in the rows with bit b
                p = signed.argmin(axis=1)  # row 0 of a block with no hit, which its zero mask leaves alone
                p += first
                pivots = int(np.count_nonzero(signed.take(p)))  # the blocks with a hit
                if not pivots:  # bit b, and maybe others, went in earlier steps
                    seen = int(np.bitwise_or.reduce(s, axis=None))
                    continue
                rank += pivots
                np.bitwise_and(hit, s.take(p)[:, None], out=sel)
                s ^= sel
                if trailing:
                    np.bitwise_and(hit, (tags.take(p) | np.uint64(1 << k))[:, None], out=sel)
                    tags ^= sel
                    pivot[k] = p
                k += 1
                seen &= seen - 1
            if trailing:
                _stack_update(stack.reshape(n * R, W), w, tags, pivot[: -(-k // 8) * 8].T)
    return rank


def _stack_update(rows: np.ndarray, w: int, tags: np.ndarray, pivot: np.ndarray) -> None:
    """XOR into the words past w of each block's rows the pivot rows that their tags name.

    rows holds the blocks' rows one after another, tags a 64-bit tag per
    row in a (blocks, rows) array, and pivot[b, k] the index in rows of
    block b's pivot k, for a multiple of 8 pivots; a block that took no
    pivot k has no tag with bit k, whatever row pivot[b, k] names.  Entry
    e of the table of block b and group g is the XOR of its pivot rows
    8 g + j, j in e, as they stood on entry: each table is made before the
    rows it reads are updated.  The tables go in column panels of at most
    _TABLE_WORDS words, and the gathers in row blocks of at most _BLOCK_WORDS.
    """
    n, R = tags.shape
    W = rows.shape[1]
    groups = pivot.shape[1] // 8
    tag_bytes = tags.view(np.uint8).reshape(n * R, 8)
    panel = min(W - w - 1, max(1, _TABLE_WORDS // (256 * groups)))
    per = max(1, _TABLE_WORDS // (256 * groups * panel))  # blocks per set of tables
    step = max(1, _BLOCK_WORDS // panel)  # rows per gather
    for t0 in range(0, n, per):
        t1 = min(t0 + per, n)
        for c0 in range(w + 1, W, panel):
            cs = slice(c0, c0 + panel)
            group = rows[pivot[t0:t1], cs].reshape(t1 - t0, groups, 8, -1)
            tables = np.zeros((t1 - t0, groups, 256, group.shape[-1]), dtype=np.uint64)
            for j in range(8):
                np.bitwise_xor(tables[:, :, : 1 << j], group[:, :, j, None], out=tables[:, :, 1 << j : 2 << j])
            tables = tables.reshape(-1, group.shape[-1])
            for r0 in range(t0 * R, t1 * R, step):
                r1 = min(r0 + step, t1 * R)
                index = (np.arange(r0, r1) // R - t0) * (256 * groups)
                X = rows[r0:r1, cs]
                for g in range(groups):
                    X ^= np.take(tables, index + tag_bytes[r0:r1, g], axis=0)
                    index += 256


def _set_bits(words: np.ndarray, pos: np.ndarray) -> None:
    """Set bit pos & 63 of words[pos >> 6] for every int64 position in pos."""
    bit = (pos & 63).view(np.uint64)
    np.left_shift(np.uint64(1), bit, out=bit)
    np.bitwise_or.at(words, pos >> 6, bit)


def _block_layout(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flip, shape, bits) of blocks with the given numbers of rows and columns.

    A block is flipped, its columns laid out as rows, when it has more
    columns than rows and more than one word of them: its stack then takes
    one strip per word of its rows, not of its columns, and fewer trailing
    words at each.  A block of at most 64 columns takes one word per row
    either way, and flipping it would only add padded rows.  shape is the
    laid-out rows << 32 | columns, both rounded up to multiples of 8, and
    bits is the block's size in its stack: its laid-out rows of whole words.
    """
    flip = cols > np.maximum(rows, WORD)
    tall = np.where(flip, cols, rows) + 7 >> 3 << 3
    wide = np.where(flip, rows, cols) + 7 >> 3 << 3
    return flip, tall << 32 | wide, tall * (wide + WORD - 1 >> 6 << 6)


class _BlockStacks:
    """Blocks with the given numbers of rows and columns, as stacks in one bit array.

    Each block is laid out by ``_block_layout``.  The blocks of one shape
    form a (blocks, rows, words) stack, in the order given, and the stacks
    lie end to end in ``bits``, in order of shape.  ``fill`` sets the
    entries of blocks k at local (row, column), and ``rank`` sums the block
    ranks, one lockstep strip elimination per stack (``_stack_rank``).
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray):
        self.flip, shape, bits = _block_layout(rows, cols)
        order = np.argsort(shape, kind="stable")
        shape, bits = shape[order], bits[order]
        self.first_bit = np.empty(rows.size, dtype=np.int64)
        self.first_bit[order] = np.cumsum(bits) - bits
        self.row_bits = np.empty(rows.size, dtype=np.int64)  # bits per laid-out row
        self.layout = []  # per stack: (first word, blocks, rows, words)
        edges = np.flatnonzero(np.diff(shape, prepend=-1, append=-1)).tolist()
        for b0, b1 in zip(edges, edges[1:]):
            tall, wide = int(shape[b0] >> 32), int(shape[b0] & 0xFFFFFFFF)
            words = -(-wide // WORD)
            self.row_bits[order[b0:b1]] = words * WORD
            self.layout.append((int(self.first_bit[order[b0]]) // WORD, b1 - b0, tall, words))
        self.bits = np.zeros(int(bits.sum()) // WORD, dtype=np.uint64)

    def fill(self, k: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
        f = self.flip[k]
        _set_bits(self.bits, self.first_bit[k] + np.where(f, col, row) * self.row_bits[k] + np.where(f, row, col))

    def rank(self) -> int:
        return sum(
            _stack_rank(self.bits[start : start + blocks * rows * words].reshape(blocks, rows, words))
            for start, blocks, rows, words in self.layout
        )
