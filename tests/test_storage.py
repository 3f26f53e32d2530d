from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storagecodes import polyf2, storage
from storagecodes.carryfree import count_nm
from storagecodes.errors import BudgetError, ParameterError, PropertyViolation
from storagecodes.field import GF2m
from storagecodes.bitmatrix import BitMatrix
from storagecodes.graphs import FamilyParams, build_graph
from storagecodes.polyf2 import SparsePoly, eval_matrix, fermat_power, graded_ranks, poly_rank, substitute
from storagecodes.storage import (
    code_report,
    coset_matrix,
    d_matrix,
    sample_codewords,
    verify_repair,
    w_matrix,
)

from oracles import (
    coset_matrix_by_xor_table,
    d_by_binomials,
    d_matrix_by_evaluation,
    mat_vec,
    mersenne_power,
    orbit_parts_by_walk,
    reduce_mod,
    span_rank,
    traced_peak,
    verify_repair_by_rows,
)


def test_coset_matrix_smallest_member():
    h = coset_matrix(FamilyParams(3, 1), GF2m(1))
    assert [h.row_int(i) for i in range(4)] == [0b1001, 0b0110, 0b0110, 0b1001]
    assert h.rank() == 2


def test_coset_matrix_symmetric_with_unit_diagonal():
    for n, m in ((3, 2), (5, 3)):
        h = coset_matrix(FamilyParams(n, m), GF2m(m))
        dense = h.to_dense()
        assert (dense == dense.T).all()
        assert dense.diagonal().all()
        # each row is the indicator of a coset, so has weight q
        assert (dense.sum(axis=1) == 1 << m).all()


def builder_exponents(m: int) -> list[int]:
    """3, 5, 7, 9 and the exponents at pow_vec's edges: q - 1 where it is > 1,
    which sends every nonzero element to 1 and 0 to 0, and q + 1, 127 and 129,
    which wrap mod q - 1."""
    q = 1 << m
    return sorted({3, 5, 7, 9, q + 1, 127, 129} | ({q - 1} if q > 2 else set()))


@pytest.mark.parametrize("m", [
    *range(1, 7),
    pytest.param(7, marks=pytest.mark.extended),
])
def test_coset_matrix_equals_the_xor_table(m):
    f = GF2m(m)
    for n in builder_exponents(m):
        params = FamilyParams(n, m)
        assert coset_matrix(params, f) == coset_matrix_by_xor_table(params, f), (n, m)


@pytest.mark.parametrize("m", [
    *range(1, 7),
    pytest.param(7, marks=pytest.mark.extended),
])
def test_d_matrix_equals_the_evaluated_indicator(m):
    f = GF2m(m)
    for n in builder_exponents(m):
        params = FamilyParams(n, m)
        assert d_matrix(params, f) == d_matrix_by_evaluation(params, f), (n, m)


class DenseAllocation(Exception):
    """Raised in place of building a BitMatrix, so no test allocates one."""


@pytest.fixture
def no_dense(monkeypatch):
    def refuse(*args, **kwargs):
        raise DenseAllocation

    monkeypatch.setattr(storage, "BitMatrix", refuse)


@pytest.mark.parametrize("build", [coset_matrix, d_matrix])
def test_dense_budget_is_checked_before_allocating(no_dense, build):
    with pytest.raises(BudgetError):
        build(FamilyParams(3, 8), GF2m(8))
    with pytest.raises(DenseAllocation):  # 16384^2 bits is inside the budget
        build(FamilyParams(3, 7), GF2m(7))


def test_w_matrix_involution_and_sandwich():
    h = coset_matrix(FamilyParams(3, 2), GF2m(2))
    w = w_matrix(h)
    assert w_matrix(w) == h
    assert abs(h.rank() - w.rank()) <= 1
    with pytest.raises(ParameterError):
        w_matrix(BitMatrix(2, 3))


def test_matrices_match_scalar_definitions():
    # rebuild H and D for one small member with plain per-entry field ops
    f = GF2m(2)
    params = FamilyParams(3, 2)
    h = coset_matrix(params, f)
    d = d_matrix(params, f)
    vectors = {(a << 2) | f.pow(a, 3) for a in f.elements()}
    for x in range(16):
        x1, x2 = x >> 2, x & 3
        for y in range(16):
            y1, y2 = y >> 2, y & 3
            assert h.get(x, y) == ((x ^ y) in vectors)
            value = f.pow(x1 ^ y1, 3) ^ x2 ^ f.pow(x1, 3) ^ y2 ^ f.pow(y1, 3)
            assert d.get(x, y) == (value != 0)


def test_substitution_preserves_rank():
    for n in (3, 5, 7):
        for m in range(1, 5):
            f = GF2m(m)
            params = FamilyParams(n, m)
            w = w_matrix(coset_matrix(params, f))
            d = d_matrix(params, f)
            assert w.rank() == d.rank(), (n, m)


def test_counting_bound_small():
    for n, r in ((3, 1), (5, 2), (9, 3)):
        for m in range(1, 4):
            d = d_matrix(FamilyParams(n, m), GF2m(m))
            assert d.rank() <= count_nm(m, r), (n, m)


def fermat_indicator(delta: SparsePoly, m: int) -> SparsePoly:
    """red(delta^(2^m - 1)), reducing only the last power."""
    return reduce_mod(mersenne_power(delta, m), m)


@pytest.mark.parametrize("n, m", [
    *((n, m) for n in (3, 5, 7, 9) for m in range(1, 6)),
    # orbit edge cases beside m = 1 (Z/1) and n = 7 at m = 3: n = 0 mod q - 1
    (15, 4),
    (31, 5),
])
def test_polynomial_ranks_equal_dense_ranks(n, m):
    f = GF2m(m)
    params = FamilyParams(n, m)
    h = coset_matrix(params, f)
    dense = (h.rank(), h.complement().rank(), d_matrix(params, f).rank())
    w = fermat_indicator(d_by_binomials(n), m)
    d = fermat_indicator(d_by_binomials(n, [(n, 0, 0, 0), (0, 0, n, 0)]), m)
    assert (poly_rank(w + SparsePoly.one()), poly_rank(w), poly_rank(d)) == dense
    if m <= 3:  # the reduced powers are the W and D indicators entry by entry
        assert np.array_equal(eval_matrix(w, f).values, h.complement().to_dense())
        assert np.array_equal(eval_matrix(d, f).values, d_matrix(params, f).to_dense())
    rep = code_report(params, f)
    assert (rep.rank_h, rep.rank_w, rep.rank_d) == dense


@pytest.mark.parametrize("n", [2 ** 16 + 1, 2 ** 20 - 1, 2 ** 40 + 1, 2 ** 70 + 1])
def test_code_report_for_exponents_past_the_packing_cap(n):
    # the polynomial route works with the exponents n r reduce to on GF(q), taken
    # in Python ints: n itself is past the 16-bit cap, and 2^70 + 1 past int64
    f = GF2m(4)
    params = FamilyParams(n, 4)
    h = coset_matrix(params, f)
    rep = code_report(params, f)
    assert (rep.rank_h, rep.rank_w, rep.rank_d) == (
        h.rank(), h.complement().rank(), d_matrix(params, f).rank()
    )


def test_code_report_ranks_one_dense_matrix(monkeypatch):
    built, ranked = [], []

    def build_h(*args):
        built.append(coset_matrix(*args))
        return built[-1]

    def refuse(*args):
        raise AssertionError("code_report built W or D densely")

    def rank_spy(self, *args, **kwargs):
        ranked.append(self)
        return rank(self, *args, **kwargs)

    rank = BitMatrix.rank
    monkeypatch.setattr(storage, "coset_matrix", build_h)
    monkeypatch.setattr(storage, "w_matrix", refuse)
    monkeypatch.setattr(storage, "d_matrix", refuse)
    monkeypatch.setattr(BitMatrix, "rank", rank_spy)
    assert code_report(FamilyParams(3, 3)).rank_h == 28
    assert len(built) == 1
    assert sum(m is built[0] for m in ranked) == 1


def test_code_report_ranks_its_h_in_place():
    # H of (3, 6) is 2 MB and ranks in place at a 2.98 MB peak; a copy of it took 5.08 MB
    rep, peak = traced_peak(code_report, FamilyParams(3, 6))
    assert rep.rank_h == 1102
    assert peak <= 3_200_000


def test_code_report_of_a_given_h_equals_its_own():
    params, f = FamilyParams(3, 3), GF2m(3)
    h = coset_matrix(params, f)
    assert code_report(params, f, h) == code_report(params, f)


def test_code_report_raises_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr(polyf2, "poly_rank", lambda p: poly_rank(p) + 1)
    with pytest.raises(PropertyViolation, match="dense rank"):
        code_report(FamilyParams(3, 2))


def test_code_report_raises_when_a_class_and_its_double_disagree(monkeypatch):
    def skewed(p):  # one more for class 2 of the member (3, 3) alone
        return poly_rank(p) + ({(e.x1 + 3 * e.x2) % 7 for e in p.monomials()} == {2})

    monkeypatch.setattr(polyf2, "poly_rank", skewed)
    with pytest.raises(PropertyViolation, match="class 2 of W has rank"):
        code_report(FamilyParams(3, 3))


@st.composite
def odd_members(draw):
    """(n, m), m <= 7, n a random odd exponent or q - 1, q + 1, 2q - 1 or 2^70 + 1."""
    m = draw(st.integers(1, 7))
    q = 1 << m
    specials = st.sampled_from([q - 1, q + 1, 2 * q - 1, 2 ** 70 + 1])
    n = draw(st.integers(0, 200).map(lambda k: 2 * k + 1) | specials)
    return n, m


def full_ranks(n: int, m: int) -> tuple[int, int, int]:
    """rank(1 + W), rank(W) and rank(D), each the block rank of the whole polynomial."""
    w = fermat_power(n, m, m)
    return poly_rank(w + SparsePoly.one()), poly_rank(w), poly_rank(substitute(w, n, m))


@settings(max_examples=40, deadline=None)
@given(odd_members())
@example((3, 1))  # Z/1: class 0 alone
@example((3, 2))  # Z/3: class 0, and class 1 with its double
@example((3, 7))
@example((63, 6))
def test_orbit_ranks_equal_the_full_ranks(member):
    n, m = member
    assert graded_ranks(n, m) == full_ranks(n, m)


@pytest.mark.parametrize("m", range(1, 14))
def test_orbit_parts_equal_the_coset_walk(m):
    got, want = polyf2._orbit_parts(m), orbit_parts_by_walk((1 << m) - 1)
    assert [size for size, _ in got] == [size for size, _ in want]
    assert all(type(size) is int for size, _ in got)
    for (_, keep), (_, table) in zip(got, want):
        assert keep.dtype == bool and np.array_equal(keep, table)


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (5, 6), (3, 7)])
def test_graded_ranks_generate_w_in_one_call(monkeypatch, n, m):
    calls = []
    monkeypatch.setattr(polyf2, "fermat_power", lambda *args: calls.append(args) or fermat_power(*args))
    graded_ranks(n, m)
    assert len(calls) == 1


def test_orbit_ranks_of_the_m7_member_write_only_the_ranked_classes():
    # W of (3, 7) has 27696 codes, 0.22 MB; written whole and filtered, the
    # ranks peaked at 0.62 MB, and the parts written alone peak at 0.14-0.16 MB
    ranks, peak = traced_peak(graded_ranks, 3, 7)
    assert ranks == (3610, 3610, 3610)
    assert peak <= 350_000


@pytest.mark.extended
@pytest.mark.parametrize("m", [8, 9])
@pytest.mark.parametrize("n", [3, 5, 7, 129, 255, 257, 301])
def test_orbit_ranks_equal_the_full_ranks_past_the_dense_budget(n, m):
    assert graded_ranks(n, m) == full_ranks(n, m)


def test_code_report_values():
    rep = code_report(FamilyParams(3, 1))
    assert (rep.size, rep.rank_h, rep.dimension) == (4, 2, 2)
    assert rep.rate == Fraction(1, 2)

    rep = code_report(FamilyParams(3, 2))
    assert rep.rank_h == 8
    assert rep.rank_h <= rep.n_m + 1 == 15
    assert rep.rate == Fraction(1, 2)
    assert rep.sandwich_ok and rep.substitution_ok and rep.nm_ok and rep.closed_form_ok
    doc = rep.to_json_dict()
    assert doc["rank_H"] == 8 and doc["rate_num"] == 1 and doc["rate_den"] == 2
    assert doc["N_m"] == 14


def test_code_report_without_counting_bound():
    rep = code_report(FamilyParams(7, 2))  # 7 is not of the form 2^r + 1
    assert rep.n_m is None and rep.nm_ok is None and rep.closed_form_ok is None
    assert rep.sandwich_ok and rep.substitution_ok


def test_rank_is_independent_of_the_modulus():
    for m, n in ((3, 3), (4, 3), (4, 5)):
        from storagecodes.field import irreducible_polynomials

        ranks = set()
        for modulus in irreducible_polynomials(m):
            f = GF2m(m, modulus=modulus)
            ranks.add(coset_matrix(FamilyParams(n, m), f).rank())
        assert len(ranks) == 1, (n, m, ranks)


def test_sample_codewords_deterministic_and_in_kernel():
    f = GF2m(2)
    h = coset_matrix(FamilyParams(3, 2), f)
    words_a = sample_codewords(h, 20, seed=99)
    words_b = sample_codewords(h, 20, seed=99)
    assert words_a == words_b
    assert words_a != sample_codewords(h, 20, seed=100)
    for w in words_a:
        assert mat_vec(h, w) == 0


def test_sample_codewords_trivial_kernel():
    eye = BitMatrix.from_dense(np.eye(4, dtype=np.uint8))
    assert sample_codewords(eye, 3, seed=1) == [0, 0, 0]
    with pytest.raises(ParameterError):
        sample_codewords(eye, 0, seed=1)


def test_verify_repair_basic():
    f = GF2m(2)
    params = FamilyParams(3, 2)
    g = build_graph(params, f)
    assert verify_repair(g, 0)
    # a lone 1 cannot be repaired from its all-zero neighbourhood
    assert not verify_repair(g, 1 << 5)
    with pytest.raises(ParameterError):
        verify_repair(g, 1 << g.num_vertices)
    with pytest.raises(ParameterError, match="does not fit 16 coordinates"):
        verify_repair(g, -1)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", [3, 5, 7])
def test_verify_repair_agrees_with_the_neighbour_rows(n, m):
    f = GF2m(m)
    params = FamilyParams(n, m)
    h = coset_matrix(params, f)
    g = build_graph(params, f)
    rng = np.random.default_rng(1000 * n + m)
    codewords = h.kernel_basis() + sample_codewords(h, 10, seed=m)
    for w in codewords:
        assert verify_repair(g, w) and verify_repair_by_rows(g, w)
        for j in rng.integers(0, g.num_vertices, size=4).tolist():
            assert not verify_repair(g, w ^ (1 << j))
            assert not verify_repair_by_rows(g, w ^ (1 << j))
    for _ in range(20):
        w = int.from_bytes(rng.bytes(g.num_vertices // 8 or 1), "little") & ((1 << g.num_vertices) - 1)
        assert verify_repair(g, w) == verify_repair_by_rows(g, w)


def test_kernel_vectors_pass_repair_via_the_graph():
    for n, m in ((3, 2), (5, 2), (3, 3)):
        f = GF2m(m)
        params = FamilyParams(n, m)
        h = coset_matrix(params, f)
        g = build_graph(params, f)
        for v in h.kernel_basis():
            assert verify_repair(g, v)
        for w in sample_codewords(h, 10, seed=5):
            assert verify_repair(g, w)
            if w:
                low = w & -w
                assert not verify_repair(g, w ^ low)


def test_kernel_of_the_m6_member_eliminates_its_augmented_matrix_in_place():
    # [H^T | 0 | I] is 4096 x 8192 bits, 4 MB; a second copy of it took the peak to 9.6 MB
    h = coset_matrix(FamilyParams(3, 6), GF2m(6))
    before = h.words.copy()
    basis, peak = traced_peak(h.kernel_basis)
    assert peak <= 7_000_000
    assert np.array_equal(h.words, before)
    assert len(basis) == 2994 == h.cols - h.rank()
    assert BitMatrix.from_row_ints(basis, h.cols).rank() == 2994
    assert not any(mat_vec(h, v) for v in basis[::97])


def test_code_dimension_matches_kernel_and_span():
    f = GF2m(2)
    h = coset_matrix(FamilyParams(3, 2), f)
    assert h.rank() == span_rank(h.row_int(i) for i in range(h.rows))
    assert len(h.kernel_basis()) == h.cols - h.rank()


# regression goldens: exact parity-check ranks of the n = 3 members, frozen
# after first computation (the small ones re-derived by the span oracle)
H_RANK_GOLDENS = {1: 2, 2: 8, 3: 28, 4: 100, 5: 330}


def test_exact_rank_goldens_small_members():
    for m, want in H_RANK_GOLDENS.items():
        assert coset_matrix(FamilyParams(3, m), GF2m(m)).rank() == want


def test_rate_is_nondecreasing_over_the_computed_range():
    rates = [code_report(FamilyParams(3, m)).rate for m in range(1, 6)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == rates[1] == Fraction(1, 2)  # the two smallest members tie


@pytest.mark.slow
def test_exact_rank_golden_m6():
    assert coset_matrix(FamilyParams(3, 6), GF2m(6)).rank() == 1102


@pytest.mark.extended
def test_exact_rank_golden_m7():
    assert code_report(FamilyParams(3, 7)).rank_h == 3610
