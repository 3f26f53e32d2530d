import functools
import io
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storagecodes import bitmatrix
from storagecodes.bitmatrix import BitMatrix, SparseBitMatrix
from storagecodes.errors import BudgetError, ParameterError

from oracles import mat_vec, pivot_rank, random_matrix, span_rank, stack_rank_by_columns, traced_peak, transpose

# the 4x4 coset matrix of the smallest family member: rows e_x + e_{x^3}
H4_ROWS = [0b1001, 0b0110, 0b0110, 0b1001]


def sparse(entries) -> SparseBitMatrix:
    """SparseBitMatrix from (row, col) pairs, each entry packed as row << 32 | col."""
    return SparseBitMatrix(np.array([r << 32 | c for r, c in entries], dtype=np.uint64))


def eye(n: int) -> BitMatrix:
    return BitMatrix.from_dense(np.eye(n, dtype=np.uint8))


def ones(rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_dense(np.ones((rows, cols), dtype=np.uint8))


def test_rank_identity_and_allones():
    for n in (1, 2, 5, 64, 65):
        assert eye(n).rank() == n
        assert ones(n, n).rank() == 1
    assert BitMatrix(3, 7).rank() == 0
    assert BitMatrix(0, 0).rank() == 0


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_zero_dimension_dense_round_trip(shape):
    m = BitMatrix.from_dense(np.zeros(shape, dtype=np.uint8))
    assert m == BitMatrix(*shape)
    dense = m.to_dense()
    assert dense.shape == shape and dense.dtype == np.uint8
    assert m.rank() == 0
    assert len(m.kernel_basis()) == shape[1]


def test_rank_small_coset_example():
    m = BitMatrix.from_row_ints(H4_ROWS, 4)
    assert m.rank() == 2
    assert m.rank() == span_rank(H4_ROWS)


def test_rank_matches_span_oracle_random():
    rng = np.random.default_rng(101)
    for rows, cols in ((5, 5), (8, 3), (3, 9), (12, 12)):
        for _ in range(20):
            m = random_matrix(rows, cols, rng)
            assert m.rank() == span_rank(m.row_int(i) for i in range(rows))


def test_rank_matches_pivot_oracle_across_word_boundaries():
    rng = np.random.default_rng(112)
    for rows, cols in ((20, 70), (70, 20), (65, 65), (5, 200)):
        for _ in range(10):
            m = random_matrix(rows, cols, rng)
            assert m.rank() == pivot_rank(m.row_int(i) for i in range(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 150), st.sampled_from([63, 64, 65, 128, 129]), st.floats(0.01, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_rank_in_place_equals_the_rank_of_a_copy(rows, cols, density, seed):
    m = BitMatrix.from_dense(np.random.default_rng(seed).random((rows, cols)) < density)
    before = m.words.copy()
    rank = m.rank()
    assert np.array_equal(m.words, before)
    assert m.rank(overwrite=True) == rank
    # the words now hold an echelon form up to row order: one distinct leading column per nonzero row
    leads = [v & -v for v in map(m.row_int, range(rows)) if v]
    assert len(set(leads)) == len(leads) == rank


def test_kernel_on_wide_matrices():
    rng = np.random.default_rng(113)
    m = random_matrix(30, 100, rng)
    basis = m.kernel_basis()
    assert m.rank() + len(basis) == 100
    assert all(mat_vec(m, v) == 0 for v in basis)
    assert pivot_rank(basis) == len(basis)


def test_rank_transpose_and_permutation_invariance():
    rng = np.random.default_rng(202)
    for _ in range(15):
        size = int(rng.integers(1, 65))
        m = random_matrix(size, size, rng)
        r = m.rank()
        assert transpose(m).rank() == r
        dense = m.to_dense()
        perm_r = rng.permutation(size)
        perm_c = rng.permutation(size)
        assert BitMatrix.from_dense(dense[perm_r][:, perm_c]).rank() == r


def test_kernel_identity_zero_and_coset_example():
    assert eye(6).kernel_basis() == []
    zero = BitMatrix(5, 5)
    basis = zero.kernel_basis()
    assert len(basis) == 5
    assert span_rank(basis) == 5
    h = BitMatrix.from_row_ints(H4_ROWS, 4)
    basis = h.kernel_basis()
    assert len(basis) == 2
    # brute force: exactly 4 of the 16 vectors lie in the kernel
    kernel = {v for v in range(16) if mat_vec(h, v) == 0}
    assert len(kernel) == 4
    assert {a ^ b for a in [0] + basis for b in [0] + basis} <= kernel
    for v in basis:
        assert mat_vec(h, v) == 0


def test_kernel_when_the_all_zero_early_exit_fires():
    # 10 x 300 with only the first 8 columns nonzero: at most 8 pivots, so the
    # rows left below them are all zero and elimination runs on to column 300
    # with nothing to clear; each of the 292 zero columns must still come out
    # as a free column of the kernel basis
    rng = np.random.default_rng(314)
    dense = np.zeros((10, 300), dtype=np.uint8)
    dense[:, :8] = rng.integers(0, 2, size=(10, 8))
    m = BitMatrix.from_dense(dense)
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    assert all(mat_vec(m, v) == 0 for v in basis)
    assert pivot_rank(basis) == len(basis)


def test_rank_plus_kernel_dimension_is_cols():
    rng = np.random.default_rng(303)
    for _ in range(20):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        m = random_matrix(rows, cols, rng)
        basis = m.kernel_basis()
        assert m.rank() + len(basis) == cols
        assert all(mat_vec(m, v) == 0 for v in basis)
        assert pivot_rank(basis) == len(basis)


@st.composite
def zero_stretch_matrices(draw):
    """Tall low-rank 0/1 matrices whose nonzero columns sit in short runs.

    Runs are separated by more than 64 zero columns, so whole words are zero
    in every row, and the column count is never a multiple of 64.  Sparse
    row combinations leave words that only one row touches.
    """
    rank = draw(st.integers(1, 8))
    rows = draw(st.integers(rank + 1, 160))
    support, c = [], draw(st.integers(0, 70))
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 10))
        support.extend(range(c, c + width))
        c += width + draw(st.integers(65, 140))
    cols = c if c % 64 else c + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    basis = rng.integers(0, 2, size=(rank, len(support)))
    combos = rng.random((rows, rank)) < draw(st.sampled_from([0.02, 0.5]))
    dense = np.zeros((rows, cols), dtype=np.uint8)
    dense[:, support] = combos.astype(np.int64) @ basis % 2
    return BitMatrix.from_dense(dense)


@settings(max_examples=100, deadline=None)
@given(zero_stretch_matrices())
def test_rank_and_kernel_across_zero_words_of_tall_low_rank_matrices(m):
    rank = m.rank()
    assert rank == pivot_rank(m.row_int(i) for i in range(m.rows))
    basis = m.kernel_basis()
    assert len(basis) == m.cols - rank
    assert all(mat_vec(m, v) == 0 for v in basis)
    assert pivot_rank(basis) == len(basis)


STRIP_COLS = (0, 1, 63, 64, 65, 127, 128, 129, 200)


def strip_matrix(kind: str, rows: int, cols: int, rng) -> BitMatrix:
    """A rows x cols test matrix of one kind, for the strip boundaries of the elimination."""
    if kind == "sparse":
        dense = rng.random((rows, cols)) < 0.02
    elif kind == "low-rank":  # a product through at most 5 dimensions
        inner = int(rng.integers(1, 6))
        dense = rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols)) % 2
    else:  # "dense", "zero-middle", "full-rank"
        dense = rng.integers(0, 2, (rows, cols))
    if kind == "zero-middle":
        dense[:, 64:128] = 0  # whole words zero in every row between nonzero ones
    if kind == "full-rank":  # an identity block makes the rank min(rows, cols)
        k = min(rows, cols)
        dense[:k, :k] = np.eye(k, dtype=dense.dtype)
        dense[:k, :k] |= np.triu(rng.integers(0, 2, (k, k)), 1).astype(dense.dtype)
    return BitMatrix.from_dense(dense)


@pytest.mark.parametrize("tiny_scratch", [False, True])
@pytest.mark.parametrize("cols", STRIP_COLS)
@pytest.mark.parametrize("kind", ["sparse", "dense", "low-rank", "zero-middle", "full-rank"])
def test_rank_and_kernel_at_strip_boundaries(kind, cols, tiny_scratch, monkeypatch):
    if tiny_scratch:  # one-word panels for 8 tables and blocks of a few rows, so small shapes split
        monkeypatch.setattr(bitmatrix, "_TABLE_WORDS", 256 * 8)
        monkeypatch.setattr(bitmatrix, "_BLOCK_WORDS", 8)
    rng = np.random.default_rng(cols * 7 + len(kind))
    for rows in (1, 40, 64, 65, 300 if cols <= 65 else 150):
        m = strip_matrix(kind, rows, cols, rng)
        before = m.words.copy()
        rank = m.rank()
        assert np.array_equal(m.words, before)  # rank works on a copy
        row_ints = [m.row_int(i) for i in range(rows)]
        small = kind == "low-rank" or min(rows, cols) <= 12  # the span oracle is exponential in the rank
        assert rank == (span_rank if small else pivot_rank)(row_ints), (rows, cols)
        if kind == "full-rank":
            assert rank == min(rows, cols)
        basis = m.kernel_basis()
        assert np.array_equal(m.words, before)
        assert len(basis) == cols - rank
        assert all(mat_vec(m, v) == 0 for v in basis)
        assert pivot_rank(basis) == len(basis)


def test_tensor_small_identities():
    i2 = eye(2)
    assert i2.tensor(i2) == eye(4)
    j2 = ones(2, 2)
    assert j2.tensor(j2) == ones(4, 4)


def test_tensor_entry_layout():
    a = BitMatrix.from_dense([[1, 0], [1, 1]])
    b = BitMatrix.from_dense([[0, 1], [1, 0]])
    t = a.tensor(b)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    want = a.get(i1, j1) & b.get(i2, j2)
                    assert t.get(i1 * 2 + i2, j1 * 2 + j2) == want


def test_tensor_rejects_results_over_the_dense_cap():
    a = BitMatrix(1 << 15, 1)
    b = BitMatrix(1 << 14, 1)
    with pytest.raises(BudgetError):
        a.tensor(b)


def test_tensor_rank_multiplicative():
    rng = np.random.default_rng(404)
    for _ in range(30):
        a = random_matrix(6, 6, rng)
        b = random_matrix(6, 6, rng)
        assert a.tensor(b).rank() == a.rank() * b.rank()


def test_hadamard_identities_and_bound():
    rng = np.random.default_rng(505)
    a = random_matrix(8, 8, rng)
    assert a.hadamard(ones(8, 8)) == a
    assert a.hadamard(BitMatrix(8, 8)) == BitMatrix(8, 8)
    for _ in range(30):
        x = random_matrix(8, 8, rng)
        y = random_matrix(8, 8, rng)
        assert x.hadamard(y).rank() <= x.rank() * y.rank()
    with pytest.raises(ParameterError):
        a.hadamard(BitMatrix(7, 8))


def test_complement_is_involution_and_flips_entries():
    rng = np.random.default_rng(606)
    m = random_matrix(9, 70, rng)
    c = m.complement()
    assert c.complement() == m
    assert m.to_dense().sum() + c.to_dense().sum() == 9 * 70


def test_row_int_round_trip_and_get():
    rows = [0b1011, 0b0100, 0]
    m = BitMatrix.from_row_ints(rows, 4)
    assert [m.row_int(i) for i in range(3)] == rows
    assert m.get(0, 0) == 1 and m.get(0, 2) == 0 and m.get(1, 2) == 1
    with pytest.raises(ParameterError):
        BitMatrix.from_row_ints([16], 4)
    with pytest.raises(ParameterError):
        m.get(0, 4)


def test_mat_vec_against_popcount():
    rng = np.random.default_rng(707)
    m = random_matrix(10, 33, rng)
    for _ in range(30):
        v = int(rng.integers(0, 1 << 33))
        bits = np.array([(v >> j) & 1 for j in range(33)])
        parities = (m.to_dense().astype(int) @ bits) % 2
        assert mat_vec(m, v) == sum(int(p) << i for i, p in enumerate(parities))


def test_dump_format_exact_and_round_trip():
    m = BitMatrix.from_row_ints([0b10000001], 8)
    buf = io.StringIO()
    m.dump(buf)
    # nibble 0 holds columns 0..3 (value 1), nibble 1 holds columns 4..7 (bit 7 -> 8)
    assert buf.getvalue() == "1 8\n18\n"
    rng = np.random.default_rng(808)
    for rows, cols in ((3, 5), (7, 64), (4, 70)):
        m = random_matrix(rows, cols, rng)
        buf = io.StringIO()
        m.dump(buf)
        buf.seek(0)
        assert BitMatrix.load(buf) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 140), st.integers(0, 2 ** 32 - 1))
def test_dump_load_round_trip_property(rows, cols, seed):
    m = random_matrix(rows, cols, np.random.default_rng(seed))
    buf = io.StringIO()
    m.dump(buf)
    buf.seek(0)
    assert BitMatrix.load(buf) == m


@pytest.mark.parametrize("rows", [63, 64, 65, 4096])
def test_dump_load_round_trip_across_dump_blocks(rows):
    m = random_matrix(rows, 67, np.random.default_rng(rows))
    buf = io.StringIO()
    m.dump(buf)
    buf.seek(0)
    assert BitMatrix.load(buf) == m


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def test_dump_of_a_4096_square_holds_a_small_fraction_of_the_matrix():
    # the matrix is 2 MB; the dump peaks at 0.20 MB, and at 1.58 MB written 512 rows at a time
    m = random_matrix(4096, 4096, np.random.default_rng(4))
    sink = _CountingSink()
    _, peak = traced_peak(m.dump, sink)
    assert sink.chars == len("4096 4096\n") + 4096 * 1025
    assert peak <= 500_000


def load_text(text: str) -> BitMatrix:
    return BitMatrix.load(io.StringIO(text))


@pytest.mark.parametrize("header", ["3\n", "3 4 5\n", "-1 4\n", "3 x\n", "+1 4\n", "1_0 4\n", ""])
def test_load_rejects_bad_header(header):
    with pytest.raises(ParameterError):
        load_text(header + "0\n" * 3)


def test_load_rejects_missing_rows():
    assert load_text("3 4\n1\n2\n4\n") == BitMatrix.from_row_ints([1, 2, 4], 4)
    with pytest.raises(ParameterError):
        load_text("3 4\n1\n")


@pytest.mark.parametrize("row", ["z00", "", "00", "0000", "1_1", " 11", "11 ", "-11", "0x1"])
def test_load_rejects_rows_that_are_not_exact_hex_digits(row):
    assert load_text("1 12\n0aF\n").row_int(0) == 0xFa0
    with pytest.raises(ParameterError):
        load_text(f"1 12\n{row}\n")


def test_load_rejects_set_pad_bits():
    assert load_text("1 5\nf1\n").row_int(0) == 0b11111
    with pytest.raises(ParameterError):
        load_text("1 5\nf2\n")  # column 5 does not exist


def test_load_rejects_text_after_the_last_row():
    assert load_text("1 4\n1\n\n  \n") == BitMatrix.from_row_ints([1], 4)
    with pytest.raises(ParameterError):
        load_text("1 4\n1\n1\n")


def test_budget_cap_on_dimensions():
    with pytest.raises(BudgetError):
        BitMatrix(1 << 17, 1 << 17)


class CountingReader(io.StringIO):
    """A text stream that counts its readline calls."""

    lines_read = 0

    def readline(self, *args):
        self.lines_read += 1
        return super().readline(*args)


def test_load_checks_the_size_cap_before_reading_a_row():
    over = CountingReader("131072 131072\n0\n")
    with pytest.raises(BudgetError):
        BitMatrix.load(over)
    assert over.lines_read == 1  # the header only
    at_cap = CountingReader(f"1 {bitmatrix.MAX_BITS}\n")
    with pytest.raises(ParameterError, match="ends after 0 of 1 rows"):
        BitMatrix.load(at_cap)
    assert at_cap.lines_read == 2


def test_sparse_compact_examples():
    empty = sparse([]).compact()
    assert (empty.rows, empty.cols) == (0, 0) and empty.rank() == 0
    assert sparse([]).rank() == 0
    one = sparse([(5, 0)])
    m = one.compact()
    assert (m.rows, m.cols) == (1, 1)
    assert m.get(0, 0) == 1 and m.rank() == 1


def test_sparse_compact_coefficient_matrix_of_small_base_poly():
    # the six monomials of (x1+y1)^3 + x2 + y2: row e_x1 << 16 | e_x2, column e_y1 << 16 | e_y2
    entries = [
        (3 << 16, 0),
        (2 << 16, 1 << 16),
        (1 << 16, 2 << 16),
        (0, 3 << 16),
        (1, 0),
        (0, 1),
    ]
    s = sparse(entries)
    assert s.nnz == 6
    m = s.compact()
    assert (m.rows, m.cols) == (5, 5)
    # rows for x1^3 and x2 coincide: both are a lone 1 in column 0
    assert m.rank() == 4
    assert m.rank() == span_rank(m.row_int(i) for i in range(5))


def test_sparse_compact_deduplicates_and_matches_dense():
    rng = np.random.default_rng(909)
    entries = set()
    for _ in range(60):
        entries.add((int(rng.integers(0, 27)), int(rng.integers(0, 27))))
    m = sparse(list(entries) + list(entries)).compact()  # duplicates collapse
    rkeys = sorted({rk for rk, _ in entries})
    ckeys = sorted({ck for _, ck in entries})
    assert (m.rows, m.cols) == (len(rkeys), len(ckeys))
    for (rk, ck) in entries:
        assert m.get(rkeys.index(rk), ckeys.index(ck)) == 1
    assert int(m.to_dense().sum()) == len(entries)


@pytest.mark.slow
def test_rank_at_thirty_thousand_dimensions_within_memory():
    rng = np.random.default_rng(1010)
    n = 30_000
    base = random_matrix(64, n, rng)
    big = BitMatrix(n, n)
    reps = -(-n // 64)
    big.words = np.tile(base.words, (reps, 1))[:n]
    assert big.words.nbytes <= 128 * 2 ** 20
    assert big.rank() == base.rank()


def entry_array(rows, cols) -> np.ndarray:
    """Entries row << 32 | col, with rows and columns spread over the whole uint32 range.

    The odd multiplier permutes the uint32 range and takes draws 0 and 15 to
    0 and 2^32 - 1, so both extremes occur among rows and among columns.
    """
    def spread(values):
        return np.array(values, dtype=np.uint64) * np.uint64(0x11111111) & np.uint64(0xFFFFFFFF)

    return spread(rows) << np.uint64(32) | spread(cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=80), st.data())
def test_block_rank_equals_flat_rank_on_random_keys(entries, data):
    if entries:  # list some positions a second time
        entries = entries + data.draw(st.lists(st.sampled_from(entries), max_size=20))
    s = SparseBitMatrix(entry_array([r for r, _ in entries], [c for _, c in entries]))
    assert s.rank() == s.compact().rank()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60), st.data())
def test_block_rank_leaves_the_key_arrays_unchanged(entries, data):
    # the matrix holds the caller's uint64 array itself, so rank must sort copies
    if entries:
        entries = entries + data.draw(st.lists(st.sampled_from(entries), max_size=20))
    array = entry_array([r for r, _ in entries], [c for _, c in entries])
    before = array.copy()
    s = SparseBitMatrix(array)
    assert s._entries is array
    s.rank()
    assert np.array_equal(array, before)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=2, max_size=60),
       st.sampled_from(["strided", "descending"]), st.sampled_from([1, 2, 3, 7, bitmatrix._CHUNK]))
def test_block_rank_of_strided_and_unsorted_entry_arrays(entries, layout, chunk):
    # the rank cuts each entry's row and column out as 32-bit keys and reads
    # them a chunk at a time; chunks of a few entries put chunk ends inside
    # runs of equal keys
    array = np.sort(entry_array([r for r, _ in entries], [c for _, c in entries]))
    if layout == "strided":  # every other word of a buffer whose other words are set
        buffer = np.full(2 * array.size, np.uint64(2 ** 64 - 1))
        buffer[::2] = array
        array = buffer[::2]
        assert not array.flags.c_contiguous
    else:  # contiguous, but its rows run from the last to the first
        buffer = array = array[::-1].copy()
    before = buffer.copy()
    s = SparseBitMatrix(array)
    assert s._entries is array
    with mock.patch.object(bitmatrix, "_CHUNK", chunk):
        rank = s.rank()
    assert np.array_equal(buffer, before)
    assert rank == s.compact().rank()


def test_block_rank_refuses_more_entries_than_int32_labels_can_number(monkeypatch):
    # rows and columns share one int32 label space, so the cap keeps R + C below 2^31
    monkeypatch.setattr(bitmatrix, "_MAX_ENTRIES", 3)
    assert sparse([(0, 0), (1, 1)]).rank() == 2
    with pytest.raises(BudgetError):
        sparse([(i, i) for i in range(3)]).rank()


def dense_blocks(max_blocks=8, max_side=6):
    side = st.integers(1, max_side)
    block = st.tuples(side, side).flatmap(
        lambda rc: st.lists(st.lists(st.booleans(), min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0])
    )
    return st.lists(block, max_size=max_blocks)


def shuffled_block_diagonal(blocks, seed):
    """The block-diagonal matrix of the given blocks, relabelled and shuffled."""
    rows, cols = [], []
    r0 = c0 = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, bit in enumerate(row):
                if bit:
                    rows.append(r0 + i)
                    cols.append(c0 + j)
        r0 += len(block)
        c0 += len(block[0])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rows))
    rows = rng.permutation(max(r0, 1))[np.array(rows, dtype=np.int64)][order]
    cols = rng.permutation(max(c0, 1))[np.array(cols, dtype=np.int64)][order]
    return SparseBitMatrix(entry_array(rows, cols))


@settings(max_examples=200, deadline=None)
@given(dense_blocks(), st.integers(0, 2 ** 32 - 1))
def test_block_rank_of_shuffled_block_diagonal_matrices(blocks, seed):
    s = shuffled_block_diagonal(blocks, seed)
    want = sum(pivot_rank(int("".join("1" if b else "0" for b in row), 2) for row in block)
               for block in blocks)
    assert s.rank() == s.compact().rank() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 130)), max_size=12), st.integers(0, 2 ** 32 - 1))
def test_block_rank_of_single_row_and_single_column_blocks(shapes, seed):
    # every block is 1 x k or k x 1 with all entries set, so each adds exactly 1;
    # k up to 130 makes the 1 x k blocks span up to three 64-bit words
    blocks = [[[True] * k] if wide else [[True]] * k for wide, k in shapes]
    s = shuffled_block_diagonal(blocks, seed)
    assert s.rank() == s.compact().rank() == len(blocks)


@st.composite
def int_blocks(draw, sides, widths, max_rank):
    """(cols, row ints) of a block of rank at most max_rank: rows are XORs of a drawn basis."""
    rows, cols = draw(st.integers(*sides)), draw(st.integers(*widths))
    k = draw(st.integers(1, max_rank))
    basis = draw(st.lists(st.integers(0, 2 ** cols - 1), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.integers(0, 2 ** k - 1), min_size=rows, max_size=rows))
    return cols, [functools.reduce(operator.xor, (b for i, b in enumerate(basis) if a >> i & 1), 0)
                  for a in coeffs]


def as_bool_block(cols, row_ints):
    return [[bool(v >> j & 1) for j in range(cols)] for v in row_ints]


def assert_block_rank(blocks, seed):
    """rank of the shuffled block-diagonal matrix = flat rank = sum of the block ranks."""
    s = shuffled_block_diagonal([as_bool_block(cols, rows) for cols, rows in blocks], seed)
    assert s.rank() == s.compact().rank() == sum(pivot_rank(rows) for _, rows in blocks)


@settings(max_examples=150, deadline=None)
@given(st.lists(int_blocks((9, 16), (9, 16), 16), min_size=2, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_lockstep_rank_of_blocks_of_different_sizes_in_one_stack(blocks, seed):
    # 9..16 rows and columns all round up to 16 x 16, so the blocks share one stack
    assert_block_rank(blocks, seed)


@settings(max_examples=100, deadline=None)
@given(st.lists(int_blocks((2, 12), (65, 150), 12), min_size=1, max_size=5), st.integers(0, 2 ** 32 - 1))
def test_lockstep_rank_of_blocks_wider_than_a_word(blocks, seed):
    assert_block_rank(blocks, seed)


@settings(max_examples=150, deadline=None)
@given(st.lists(int_blocks((2, 24), (2, 24), 3), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_lockstep_rank_of_low_rank_blocks(blocks, seed):
    assert_block_rank(blocks, seed)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2 ** 20 - 1), int_blocks((0, 10), (21, 21), 21)),
                min_size=1, max_size=6))
def test_lockstep_rank_when_the_pivot_swap_displaces_a_row(blocks):
    # rows 2x and 2x + 1 head each block and entries keep the drawn order, so bit 0
    # first hits row 1, and row 0, which the pivot search finds first for a block
    # with no hit, must stay a row of its own until a later bit reaches it
    rows, cols = [], []
    want = 0
    for b, (x, (_, rest)) in enumerate(blocks):
        block = [x << 1, x << 1 | 1, *rest]
        want += pivot_rank(block)
        for i, v in enumerate(block):
            for j in range(22):
                if v >> j & 1:
                    rows.append(b << 8 | i)
                    cols.append(b << 8 | j)
    s = sparse(zip(rows, cols))
    assert s.rank() == s.compact().rank() == want


STACK_KINDS = ["zero", "late", "sparse", "dense", "low-rank", "zero-middle", "full-rank"]


def stack_block(kind: str, rows: int, cols: int, rng) -> np.ndarray:
    """The words of a rows x cols block of one kind: all zero, late, or a strip_matrix kind."""
    if kind == "zero":
        return BitMatrix(rows, cols).words
    if kind == "late":  # no hit at the first columns, where the other blocks take pivots
        dense = rng.integers(0, 2, (rows, cols))
        dense[:, : int(rng.integers(1, cols + 1))] = 0
        return BitMatrix.from_dense(dense).words
    return strip_matrix(kind, rows, cols, rng).words


@pytest.mark.parametrize("table_words, block_words",
                         [(bitmatrix._TABLE_WORDS, bitmatrix._BLOCK_WORDS), (256 * 8, 8), (256 * 16, 64)])
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 140),
       st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=5), st.integers(0, 2 ** 32 - 1))
@example(cols=64, rows=64, kinds=["full-rank", "zero", "late"], seed=1)
@example(cols=129, rows=140, kinds=["late", "full-rank", "low-rank", "full-rank"], seed=2)
def test_strip_stack_rank_equals_the_column_rank(table_words, block_words, cols, rows, kinds, seed):
    # 63 to 129 columns give stacks of one to three words, so strips end inside
    # and at the edge of a word; a full-rank block of 64 rows or more takes 64
    # pivots in strip 0, beside zero blocks and late blocks that take none there.  The
    # patched scratch cuts the runs of blocks, table sets and row blocks down to
    # one block and 8 rows, or to a few blocks and rows of a few words, so they split
    rng = np.random.default_rng(seed)
    M = np.stack([stack_block(kind, rows, cols, rng) for kind in kinds])
    want = sum(pivot_rank(int.from_bytes(row.tobytes(), "little") for row in block) for block in M)
    assert stack_rank_by_columns(M.copy(), cols) == want
    with mock.patch.multiple(bitmatrix, _TABLE_WORDS=table_words, _BLOCK_WORDS=block_words):
        assert bitmatrix._stack_rank(M) == want


def test_strip_stack_rank_of_a_multi_word_stack_holds_fixed_scratch():
    # 200 blocks of 200 x 300 bits, laid out along the long side as 304 rows of 4
    # words (1.9 MB); the elimination holds a run of blocks of at most
    # _BLOCK_WORDS rows, its tables and row blocks beside the stack, whatever its
    # size: 1.13 MB here, where the column elimination took 2.93 MB
    rng = np.random.default_rng(300)
    M = np.stack([random_matrix(304, 200, rng).words for _ in range(200)])
    M[:, 300:] = 0
    rank, peak = traced_peak(bitmatrix._stack_rank, M)
    assert rank == 200 * 200
    assert peak <= 1_250_000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(int_blocks((1, 1), (1, 130), 1), int_blocks((1, 130), (1, 1), 1),
                          int_blocks((2, 20), (2, 20), 20)), max_size=10),
       st.integers(0, 2 ** 32 - 1))
def test_block_rank_of_thin_blocks_among_larger_ones_with_repeated_positions(blocks, seed):
    # 1 x k and k x 1 blocks count 1 each without a stack slot, beside blocks
    # that take one; about a third of the positions are listed twice
    s = shuffled_block_diagonal([as_bool_block(cols, rows) for cols, rows in blocks], seed)
    rng = np.random.default_rng(seed)
    twice = SparseBitMatrix(rng.permutation(np.concatenate([s._entries, s._entries[rng.random(s.nnz) < 0.3]])))
    want = sum(pivot_rank(rows) for _, rows in blocks)
    assert twice.rank() == (twice.compact().rank() if twice.nnz else 0) == want


def test_block_rank_of_an_identity_takes_no_stack_slots():
    # 100000 1 x 1 blocks took an 8 x 8 stack slot each, a peak of 228 bytes per
    # entry under tracemalloc; counted without a slot they peaked at 78 bytes per
    # entry, and now, filled into a stack layout of the other blocks alone, at
    # 54, the component pass alone; the cap stays 10% above the 78
    n = 100_000
    s = SparseBitMatrix(entry_array(np.arange(n), np.arange(n)))
    rank, peak = traced_peak(s.rank)
    assert rank == n
    assert peak <= 8_600_000


def test_block_rank_lays_a_wide_block_out_along_its_long_side(monkeypatch):
    # a 3 x 130 block is one stack of 130 laid-out rows (136 with padding) of 3
    # columns, so its lockstep elimination takes one 64-column strip of one word
    # per row rather than three strips of three words
    rng = np.random.default_rng(130)
    block = [2 ** 130 - 1] + [int.from_bytes(rng.bytes(17), "little") >> 6 for _ in range(2)]
    s = shuffled_block_diagonal([as_bool_block(130, block)], 7)
    seen, stack_rank = [], bitmatrix._stack_rank
    monkeypatch.setattr(bitmatrix, "_stack_rank", lambda M: seen.append(M.shape) or stack_rank(M))
    assert s.rank() == pivot_rank(block) == 3
    assert seen == [(1, 136, 1)]


def test_block_rank_neither_compacts_nor_ranks_dense_blocks(monkeypatch):
    # a 3 x 3 block of rank 2 (its rows sum to zero) and a 2 x 2 identity
    cycle = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
    s = sparse(cycle + [(9, 9), (10, 10)])

    def refuse(*args, **kwargs):
        raise AssertionError("SparseBitMatrix.rank went through a per-block BitMatrix")

    monkeypatch.setattr(SparseBitMatrix, "compact", refuse)
    monkeypatch.setattr(BitMatrix, "rank", refuse)
    assert s.rank() == 4
