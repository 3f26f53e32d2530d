import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storagecodes import polyf2
from storagecodes.bitmatrix import SparseBitMatrix, _BlockStacks
from storagecodes.errors import BudgetError, ParameterError, PropertyViolation
from storagecodes.field import GF2m
from storagecodes.graphs import FamilyParams
from storagecodes.polyf2 import (
    Monomial,
    SparsePoly,
    certify_unit_rate,
    coeff_matrix,
    eval_matrix,
    fermat_power,
    frobenius,
    poly_mul,
    poly_rank,
    substitute,
)
from storagecodes.storage import code_report, coset_matrix, d_matrix, w_matrix

from oracles import (
    certificate_rank_by_components,
    d_by_binomials,
    fermat_indicators,
    graded_part,
    mersenne_power,
    mersenne_powers,
    poly_mul_by_dict,
    reduce_mod,
    span_rank,
    traced_peak,
    xor_reduce_by_counts,
)


def mono_set(p: SparsePoly) -> set:
    return set(p.monomials())


def monomial_lists(max_monos=10, max_exp=6):
    exps = st.integers(0, max_exp)
    return st.lists(st.tuples(exps, exps, exps, exps), min_size=1, max_size=max_monos)


def random_poly(rng, max_monos=10, max_exp=6) -> SparsePoly:
    k = int(rng.integers(1, max_monos + 1))
    return SparsePoly.from_monomials(
        tuple(int(e) for e in rng.integers(0, max_exp + 1, size=4)) for _ in range(k)
    )


def test_base_polynomial_small_exponents():
    d3 = fermat_power(3, 1)
    assert mono_set(d3) == {
        Monomial(3, 0, 0, 0),
        Monomial(2, 0, 1, 0),
        Monomial(1, 0, 2, 0),
        Monomial(0, 0, 3, 0),
        Monomial(0, 1, 0, 0),
        Monomial(0, 0, 0, 1),
    }
    d5 = fermat_power(5, 1)
    assert mono_set(d5) == {
        Monomial(5, 0, 0, 0),
        Monomial(4, 0, 1, 0),
        Monomial(1, 0, 4, 0),
        Monomial(0, 0, 5, 0),
        Monomial(0, 1, 0, 0),
        Monomial(0, 0, 0, 1),
    }
    assert len(fermat_power(7, 1)) == 10
    assert len(fermat_power(1, 1)) == 4
    with pytest.raises(ParameterError):
        fermat_power(4, 1)
    with pytest.raises(ParameterError):
        fermat_power(-3, 1)


@pytest.mark.parametrize("n, t, m", [(3, 0, None), (3, -1, None), (3, 3, 2)])
def test_fermat_power_rejects_bad_parameters(n, t, m):
    with pytest.raises(ParameterError):
        fermat_power(n, t, m)


@pytest.mark.parametrize("n, t, m", [
    (2 ** 18 - 1, 1, None),
    (2 ** 70 + 1, 1, None),
    (4097, 5, None),  # 4097 * 31 > 65535, while 4097 * 15 fits
    (3, 17, 17),  # reduced exponents reach 2^17 - 1
])
def test_fermat_power_rejects_exponents_past_the_packing_cap_before_listing_terms(monkeypatch, n, t, m):
    assert len(fermat_power(polyf2.EXP_MAX, 1)) == 2 ** 16 + 2
    assert len(fermat_power(4097, 4)) == 6 ** 4  # (x1^4097 + y1^4097 + x2 + y2)^15

    def refuse(*args, **kwargs):
        raise AssertionError("fermat_power listed its terms")

    monkeypatch.setattr(polyf2, "_submasks", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(BudgetError, match="exponent"):
        fermat_power(n, t, m)


def test_fermat_power_refuses_a_size_over_the_cap_before_allocating(monkeypatch):
    # d^(2^5 - 1) for n = 7 has 3792 monomials, d^15 has 832; the cap counts
    # the whole power, whatever keep leaves of it
    monkeypatch.setattr(polyf2, "PAIR_BUDGET", 1000)
    assert len(fermat_power(7, 4)) == 832
    [none] = fermat_power(7, 4, keep=[np.zeros(7 * 15 + 1, dtype=bool)])
    assert none == SparsePoly.zero() and poly_rank(none) == 0
    assert fermat_power(7, 3, 3, [np.zeros(7, dtype=bool)] * 2) == [SparsePoly.zero()] * 2
    assert fermat_power(7, 3, 3, []) == []

    def refuse(*args, **kwargs):
        raise AssertionError("fermat_power allocated its codes")

    monkeypatch.setattr(np, "empty", refuse)
    for keep in (None, [np.zeros(7 * 31 + 1, dtype=bool)]):
        with pytest.raises(BudgetError, match="3792 monomials, over budget 1000"):
            fermat_power(7, 5, keep=keep)


def test_certify_stops_at_the_first_power_over_the_size_cap(monkeypatch):
    monkeypatch.setattr(polyf2, "PAIR_BUDGET", 1000)
    with pytest.raises(BudgetError) as err:
        certify_unit_rate(7, 6)
    assert err.value.trace == ((1, 8, 4), (2, 24, 16), (3, 64, 64), (4, 304, 256))


@pytest.mark.parametrize("n", range(1, 22, 2))
def test_fermat_power_equals_the_product_route(n):
    d = d_by_binomials(n)
    assert fermat_power(n, 1) == d
    for t, power in enumerate(mersenne_powers(d, 7 if n < 15 else 6), start=1):
        got = fermat_power(n, t)
        assert got == power, t
        assert (got._codes[1:] > got._codes[:-1]).all()


@st.composite
def reduced_members(draw):
    """(n, m) with m <= 7 and n one of 3..15, q - 1, q + 1, 2q - 1 or an exponent past q."""
    m = draw(st.integers(1, 7))
    q = 1 << m
    n = draw(st.sampled_from([*range(3, 16, 2), q - 1, q + 1, 2 * q - 1, 127, 129, 255, 257, 301]))
    return n, m


@settings(max_examples=25, deadline=None)
@given(reduced_members())
@example((3, 7))  # the largest member with a dense H
def test_reduced_fermat_power_and_its_substitution_equal_the_product_route(member):
    n, m = member
    w, d = fermat_indicators(n, m)
    got = fermat_power(n, m, m)
    assert got == w
    assert substitute(got, n, m) == d


@pytest.mark.parametrize("n", range(1, 32, 2))
def test_reduced_powers_that_stay_below_q_minus_1_are_the_unreduced_powers(n):
    # every t <= 5 and t <= m <= 16 with q - 1 > n (2^t - 1): no exponent n r and
    # no row weight j + n b reaches q - 1, so the reduced power and its parts are
    # the unreduced ones, and a keep table padded with False keeps the same rows
    rng = np.random.default_rng(n)
    for t in range(1, 6):
        total = n * ((1 << t) - 1)
        power, table = fermat_power(n, t), rng.random(total + 1) < 0.5
        [part] = fermat_power(n, t, keep=[table])
        for m in range(t, 17):
            if (1 << m) - 1 > total:
                padded = np.concatenate([table, np.zeros((1 << m) - 2 - total, dtype=bool)])
                assert fermat_power(n, t, m) == power, (t, m)
                assert fermat_power(n, t, m, [padded]) == [part], (t, m)


@pytest.mark.parametrize("n, t, m", [
    (3, 2, 3), (5, 2, 3), (7, 3, 4), (9, 2, 5), (3, 3, 5), (11, 2, 4),
    (5, 3, 4), (13, 3, 5),
])
def test_reduced_powers_at_t_below_m_equal_the_reduced_product_route(n, t, m):
    assert fermat_power(n, t, m) == reduce_mod(mersenne_power(d_by_binomials(n), t), m)


def weights(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row weights e_x1 + n e_x2 and column weights e_y1 + n e_y2, as Python-int object arrays."""
    x1, x2, y1, y2 = ((codes >> np.uint64(sh)) & np.uint64(polyf2.EXP_MAX) for sh in (48, 32, 16, 0))
    return x1.astype(object) + n * x2.astype(object), y1.astype(object) + n * y2.astype(object)


def swap_halves(codes: np.ndarray) -> np.ndarray:
    """The codes with rows and columns exchanged, (x1, x2) <-> (y1, y2), sorted."""
    return np.sort(codes << np.uint64(32) | codes >> np.uint64(32))


odd_exponents = st.integers(0, 15).map(lambda k: 2 * k + 1)


@settings(max_examples=40, deadline=None)
@given(odd_exponents, st.integers(1, 6))
def test_certificate_powers_are_their_own_transposes_of_one_weight(n, t):
    # the premises of the halved rank: the swap maps the code set onto itself,
    # and row weight plus column weight is n (2^t - 1) in every entry
    codes = fermat_power(n, t)._codes
    assert np.array_equal(swap_halves(codes), codes)
    rows, cols = weights(codes, n)
    assert (rows + cols == n * ((1 << t) - 1)).all()


@settings(max_examples=40, deadline=None)
@given(reduced_members() | st.tuples(st.just(2 ** 70 + 1), st.integers(1, 7)))
@example((2 ** 70 + 1, 7))
def test_reduced_powers_are_their_own_transposes(member):
    n, m = member
    codes = fermat_power(n, m, m)._codes
    assert np.array_equal(swap_halves(codes), codes)
    rows, cols = weights(codes, n)
    assert ((rows + cols) % ((1 << m) - 1) == 0).all()


def test_halved_certificate_rank_equals_the_full_rank(monkeypatch):
    # the class route against the component route on the two fermat_power
    # halves and against the block rank of the whole power; with
    # HALF_CHECK_T_MAX = 0 it lists only about the low half, as past t = 7
    for n in range(1, 32, 2):
        for t in range(1, 7):
            rank = polyf2._certificate_rank(n, t)
            with monkeypatch.context() as patch:
                patch.setattr(polyf2, "HALF_CHECK_T_MAX", 0)
                low_only = polyf2._certificate_rank(n, t)
            assert rank == low_only == certificate_rank_by_components(n, t), (n, t)
            assert rank == poly_rank(fermat_power(n, t)), (n, t)


seeds = st.integers(0, 2 ** 32 - 1)
shares = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])


def keep_table(size: int, seed: int, share: float) -> np.ndarray:
    """A random bool table of the given length with about the given share set."""
    return np.random.default_rng(seed).random(size) < share


table_draws = st.lists(st.tuples(seeds, shares), min_size=1, max_size=3)  # tables may overlap


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15).map(lambda k: 2 * k + 1), st.integers(1, 6), table_draws)
def test_fermat_power_writes_the_rows_of_the_kept_weights(n, t, draws):
    keep = [keep_table(n * ((1 << t) - 1) + 1, seed, share) for seed, share in draws]
    whole = fermat_power(n, t)
    assert fermat_power(n, t, keep=keep) == [graded_part(whole, n, table) for table in keep]


@settings(max_examples=40, deadline=None)
@given(reduced_members() | st.tuples(st.just(2 ** 70 + 1), st.integers(1, 7)), table_draws)
@example((2 ** 70 + 1, 7), [(1, 0.5)])
@example((3, 4), [(1, 0.5), (2, 0.5), (1, 0.5)])
def test_reduced_fermat_power_writes_the_rows_of_the_kept_classes(member, draws):
    n, m = member
    period = (1 << m) - 1
    keep = [keep_table(period, seed, share) for seed, share in draws]
    whole = fermat_power(n, m, m)
    assert fermat_power(n, m, m, keep) == [graded_part(whole, n, table, period) for table in keep]


@pytest.mark.parametrize("n, t, m, size", [(3, 4, None, 3 * 15 + 1), (3, 4, 4, 15), (2 ** 70 + 1, 3, 5, 31)])
def test_keep_tables_of_the_wrong_length_are_rejected_before_listing_terms(monkeypatch, n, t, m, size):
    # a reduced table one entry too long would be read twice over at the wrong period
    def refuse(*args, **kwargs):
        raise AssertionError("fermat_power listed its terms")

    monkeypatch.setattr(polyf2, "_submasks", refuse)
    for wrong in (size - 1, size + 1):
        for keep in ([np.ones(wrong, dtype=bool)], [np.ones(size, dtype=bool), np.ones(wrong, dtype=bool)]):
            with pytest.raises(ParameterError, match=f"needs {size} entries"):
                fermat_power(n, t, m, keep)


def test_certify_raises_when_the_halves_disagree(monkeypatch):
    ranks, half_rank = [], _BlockStacks.rank  # the low half is ranked first, then the high half

    def skewed(half):  # one more for the rows of d = (x1+y1)^7 + x2 + y2 of weight above 7/2
        ranks.append(half_rank(half))
        return ranks[-1] + (len(ranks) == 2)

    monkeypatch.setattr(_BlockStacks, "rank", skewed)
    with pytest.raises(PropertyViolation, match="rows of weight below 7/2 have rank 4, those above 5"):
        certify_unit_rate(7, t_max=1)
    assert ranks == [4, 4]


def test_certify_ranks_both_halves_only_up_to_the_check_limit(monkeypatch):
    calls, half_rank = [], _BlockStacks.rank
    monkeypatch.setattr(_BlockStacks, "rank", lambda half: calls.append(half) or half_rank(half))
    monkeypatch.setattr(polyf2, "HALF_CHECK_T_MAX", 2)
    assert certify_unit_rate(7, t_max=3).trace == ((1, 8, 4), (2, 24, 16), (3, 64, 64))
    assert len(calls) == 5  # low and high half at t = 1 and 2, the low half alone at t = 3


def test_certify_needs_no_codes_and_no_component_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate formed codes or ranked them by components")

    monkeypatch.setattr(polyf2, "fermat_power", refuse)
    monkeypatch.setattr(polyf2, "poly_rank", refuse)
    monkeypatch.setattr(SparseBitMatrix, "rank", refuse)
    with pytest.raises(AssertionError):  # the stubs are on the component route
        certificate_rank_by_components(7, 2)
    assert certify_unit_rate(13, 7).trace[-1] == (7, 14442, 16384)


def test_certificate_and_coefficient_ranks_fill_one_stack_layout(monkeypatch):
    # both routes rank through the block-stack layout of bitmatrix: the
    # certificate once per half at each t, the coefficient matrix once
    layouts, rank = [], _BlockStacks.rank
    monkeypatch.setattr(_BlockStacks, "rank", lambda stacks: layouts.append(stacks) or rank(stacks))
    assert certify_unit_rate(7, 3).trace == ((1, 8, 4), (2, 24, 16), (3, 64, 64))
    assert len(layouts) == 6
    assert poly_rank(fermat_power(7, 3)) == 64
    assert len(layouts) == 7


def test_certify_splits_its_classes_into_buckets_of_the_same_rank(monkeypatch):
    # a cap of one class block per bucket fills and ranks every class alone
    calls, half_rank = [], _BlockStacks.rank
    monkeypatch.setattr(_BlockStacks, "rank", lambda half: calls.append(len(half.layout)) or half_rank(half))
    monkeypatch.setattr(polyf2, "CLASS_BITS", 1)
    assert polyf2._certificate_rank(11, 5) == 1198
    assert len(calls) == 2 * 171 and set(calls) == {1}  # two halves of the 171 classes below 11 * 31 / 2


@pytest.mark.parametrize("n", [3, 5, 2 ** 70 + 1])
def test_substitution_evaluates_to_the_d_matrix(n):
    # eval_matrix is an independent route from the polynomial to the matrix entries
    for m in (1, 2, 3):
        f = GF2m(m)
        d = substitute(fermat_power(n, m, m), n, m)
        assert np.array_equal(eval_matrix(d, f).values, d_matrix(FamilyParams(n, m), f).to_dense())


def test_low_half_of_the_n13_t7_certificate_is_written_alone():
    # the 42096 kept codes take 0.34 MB; concatenating every block's kept rows
    # would hold them twice, while counting them first and then filling one
    # array peaks at 0.42 MB
    low = 2 * np.arange(13 * 127 + 1) < 13 * 127
    [half], peak = traced_peak(lambda: fermat_power(13, 7, keep=[low]))
    assert len(half) == 42096
    assert peak <= 500_000


def test_fermat_power_of_the_n13_t7_certificate_fills_one_array():
    # 84192 codes of 8 bytes are 0.67 MB; the product route peaked at 2.47 MB
    power, peak = traced_peak(fermat_power, 13, 7)
    assert len(power) == 84192
    assert peak <= 1_200_000


class ProductFormed(Exception):
    """Raised in place of a polynomial product."""


def test_certify_and_code_report_form_no_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise ProductFormed

    monkeypatch.setattr(polyf2, "poly_mul", refuse)
    monkeypatch.setattr(polyf2, "frobenius", refuse)
    with pytest.raises(ProductFormed):  # the stubs are on the product route
        mersenne_power(fermat_power(7, 1), 2)
    assert certify_unit_rate(7, 6).trace[-1] == (6, 3256, 4096)
    rep = code_report(FamilyParams(3, 4))
    assert (rep.rank_h, rep.rank_w, rep.rank_d) == (100, 100, 100)


def test_mul_identity_and_frobenius_square():
    d3 = fermat_power(3, 1)
    assert poly_mul(d3, SparsePoly.one()) == d3
    assert poly_mul(d3, SparsePoly.zero()) == SparsePoly.zero()
    assert poly_mul(SparsePoly.zero(), d3) == SparsePoly.zero()
    x1_plus_y1 = SparsePoly.from_monomials([(1, 0, 0, 0), (0, 0, 1, 0)])
    sq = poly_mul(x1_plus_y1, x1_plus_y1)
    assert mono_set(sq) == {Monomial(2, 0, 0, 0), Monomial(0, 0, 2, 0)}
    assert poly_mul(d3, d3) == frobenius(d3, 1)


@settings(max_examples=200, deadline=None)
@given(monomial_lists(), monomial_lists())
def test_mul_matches_dict_oracle(p_monos, q_monos):
    p = SparsePoly.from_monomials(p_monos)
    q = SparsePoly.from_monomials(q_monos)
    want = poly_mul_by_dict(p.monomials(), q.monomials())
    assert mono_set(poly_mul(p, q)) == want


@st.composite
def code_multisets(draw):
    """Shuffled uint64 codes whose runs of equal codes have every length 1..5.

    The values include 0 and 2^64 - 1 and small codes that collide often.
    """
    values = st.one_of(
        st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 7), st.integers(0, 2 ** 64 - 1)
    )
    runs = draw(st.lists(st.tuples(values, st.integers(1, 5)), max_size=30))
    return draw(st.permutations([v for v, k in runs for _ in range(k)]))


def xor_reduce_in_chunks(codes, chunk):
    with mock.patch.object(polyf2, "_RUN_CHUNK", chunk):
        return polyf2._xor_reduce(np.array(codes, dtype=np.uint64))


@settings(max_examples=300, deadline=None)
@given(code_multisets(), st.sampled_from([1, 2, 3, 7, polyf2._RUN_CHUNK]))
def test_xor_reduce_matches_the_unique_counts_oracle(codes, chunk):
    # chunks of 1, 2, 3 and 7 codes split runs across chunk boundaries
    want = xor_reduce_by_counts(np.array(codes, dtype=np.uint64))
    got = xor_reduce_in_chunks(codes, chunk)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


TOP = 2 ** 64 - 1


@pytest.mark.parametrize("codes, want", [
    ([], []),
    ([5], [5]),
    ([9] * 7, [9]),
    ([9] * 8, []),
    ([TOP, 0, TOP, 0, 0], [0]),
    ([TOP, 3, TOP, TOP, 3], [TOP]),
    ([0, TOP], [0, TOP]),
])
@pytest.mark.parametrize("chunk", [1, 2, 3, polyf2._RUN_CHUNK])
def test_xor_reduce_examples(codes, want, chunk):
    assert xor_reduce_in_chunks(codes, chunk).tolist() == want


@settings(max_examples=100, deadline=None)
@given(monomial_lists(), monomial_lists(), st.integers(1, 3))
def test_products_sums_and_reductions_leave_their_operands_unchanged(p_monos, q_monos, m):
    # _xor_reduce sorts and compacts its argument in place, so every caller must hand it a fresh array
    p = SparsePoly.from_monomials(p_monos)
    q = SparsePoly.from_monomials(q_monos)
    r = reduce_mod(p, m)
    before = p._codes.copy(), q._codes.copy(), r._codes.copy()
    results = [
        poly_mul(p, q),
        poly_mul(p, p),
        p + q,
        p + p,
        substitute(r, 3, m),
        SparsePoly.from_monomials(p.monomials()),
    ]
    assert all(np.array_equal(a._codes, b) for a, b in zip((p, q, r), before))
    for s in results:
        assert not any(np.shares_memory(s._codes, a._codes) for a in (p, q, r))


def test_addition_is_symmetric_difference():
    p = SparsePoly.from_monomials([(1, 0, 0, 0), (0, 1, 0, 0)])
    q = SparsePoly.from_monomials([(0, 1, 0, 0), (0, 0, 1, 0)])
    assert mono_set(p + q) == {Monomial(1, 0, 0, 0), Monomial(0, 0, 1, 0)}
    assert p + p == SparsePoly.zero()


def test_frobenius_scales_exponents():
    p = SparsePoly.from_monomials([(0, 1, 0, 0)])
    assert mono_set(frobenius(p, 1)) == {Monomial(0, 2, 0, 0)}
    rng = np.random.default_rng(37)
    for _ in range(20):
        q = random_poly(rng)
        fq = frobenius(q, 2)
        assert len(fq) == len(q)
        assert mono_set(fq) == {Monomial(*(4 * e for e in m)) for m in q.monomials()}
    with pytest.raises(ParameterError):
        frobenius(p, 0)
    with pytest.raises(BudgetError):
        frobenius(SparsePoly.from_monomials([(60000, 0, 0, 0)]), 1)


@settings(max_examples=200, deadline=None)
@given(monomial_lists(max_exp=255), st.integers(1, 8))
def test_frobenius_codes_strictly_increasing_property(monos, i):
    # exponents <= 255 times 2^i <= 256 stay within the 16-bit fields
    p = SparsePoly.from_monomials(monos)
    fp = frobenius(p, i)
    assert (fp._codes[1:] > fp._codes[:-1]).all()
    assert fp.monomials() == [Monomial(*(e << i for e in m)) for m in p.monomials()]


def test_pow_mersenne_small_cases():
    p = SparsePoly.from_monomials([(1, 0, 0, 0), (0, 0, 0, 0)])  # x1 + 1
    assert list(mersenne_powers(p, 1)) == [p]
    first, cube = mersenne_powers(p, 2)
    assert first == p
    assert mono_set(cube) == {
        Monomial(3, 0, 0, 0),
        Monomial(2, 0, 0, 0),
        Monomial(1, 0, 0, 0),
        Monomial(0, 0, 0, 0),
    }
    with pytest.raises(ParameterError):
        next(mersenne_powers(p, 0))


def test_pow_mersenne_equals_repeated_multiplication():
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = random_poly(rng, max_monos=4, max_exp=3)
        powers = list(mersenne_powers(p, 3))
        assert len(powers) == 3
        for t, power in enumerate(powers, start=1):
            slow = SparsePoly.one()
            for _ in range(2 ** t - 1):
                slow = poly_mul(slow, p)
            assert power == slow, t


def test_coeff_matrix_shares_the_polynomial_codes():
    # the codes are the entries, row (e_x1, e_x2) in the high half: no copy is made
    p = fermat_power(7, 3)
    s = coeff_matrix(p)
    assert np.shares_memory(s._entries, p._codes)
    assert s.nnz == len(p)


def test_coeff_matrix_entries():
    p = SparsePoly.from_monomials([(0, 1, 0, 0), (0, 0, 0, 1)])  # x2 + y2
    # rows (0, 0), (0, 1) and columns (0, 0), (0, 1) in sorted key order
    assert coeff_matrix(p).compact().to_dense().tolist() == [[0, 1], [1, 0]]
    d3 = fermat_power(3, 1)
    s = coeff_matrix(d3)
    assert s.nnz == len(d3) == 6
    m = s.compact()
    assert (m.rows, m.cols) == (5, 5)


def test_poly_rank_of_base_polynomial():
    # independent check: the 5x5 coefficient matrix has two equal rows
    # (x2 and y1^3 both map to a lone 1 in column (0, 0)), so rank is 4
    m = coeff_matrix(fermat_power(3, 1)).compact()
    assert poly_rank(fermat_power(3, 1)) == 4
    assert span_rank(m.row_int(i) for i in range(m.rows)) == 4
    assert poly_rank(SparsePoly.zero()) == 0
    assert poly_rank(SparsePoly.one()) == 1


def test_poly_rank_invariant_under_frobenius():
    rng = np.random.default_rng(43)
    for _ in range(25):
        p = random_poly(rng, max_monos=50, max_exp=9)
        r = poly_rank(p)
        for i in (1, 2, 3):
            assert poly_rank(frobenius(p, i)) == r


def test_mul_budget_errors():
    # 10001^2 = 100020001 pairs, just over PAIR_BUDGET: refused before the 800 MB of pair sums
    p = SparsePoly.from_monomials((i, 0, 0, 0) for i in range(10001))
    q = SparsePoly.from_monomials((0, 0, i, 0) for i in range(10001))
    assert len(p) * len(q) > polyf2.PAIR_BUDGET

    def refuse():
        with pytest.raises(BudgetError, match="over budget"):
            poly_mul(p, q)

    _, peak = traced_peak(refuse)
    assert peak < 100_000
    with pytest.raises(BudgetError):
        SparsePoly.from_monomials([(1 << 17, 0, 0, 0)])


def test_eval_matrix_constant_and_base_polynomial():
    f = GF2m(3)
    ones = eval_matrix(SparsePoly.one(), f)
    assert (ones.values == 1).all()
    assert ones.rank() == 1
    assert eval_matrix(fermat_power(3, 1), f).rank() == poly_rank(fermat_power(3, 1)) == 4


def test_eval_matrix_matches_scalar_evaluation():
    rng = np.random.default_rng(61)
    f = GF2m(2)
    p = random_poly(rng, max_monos=8, max_exp=4)
    fm = eval_matrix(p, f)
    for x in range(16):
        x1, x2 = x >> 2, x & 3
        for y in range(16):
            y1, y2 = y >> 2, y & 3
            want = 0
            for mon in p.monomials():
                term = f.mul(f.pow(x1, mon.x1), f.pow(x2, mon.x2))
                term = f.mul(term, f.mul(f.pow(y1, mon.y1), f.pow(y2, mon.y2)))
                want ^= term
            assert int(fm.values[x, y]) == want


def test_eval_rank_equals_coeff_rank_when_field_is_large():
    rng = np.random.default_rng(47)
    for m in (3, 4):
        f = GF2m(m)
        for _ in range(10):
            p = random_poly(rng, max_monos=10, max_exp=6)  # degree < q in each variable
            assert eval_matrix(p, f).rank() == poly_rank(p)


@st.composite
def weighted_homogeneous_polys(draw):
    """Monomials x1^a x2^b y1^c y2^d of one weighted degree a + w*b + c + w*d = D."""
    w, D = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    monos = []
    for _ in range(draw(st.integers(1, 24))):
        b = draw(st.integers(0, D // w))
        d = draw(st.integers(0, (D - w * b) // w))
        a = draw(st.integers(0, D - w * (b + d)))
        monos.append((a, b, D - w * (b + d) - a, d))
    return SparsePoly.from_monomials(monos)


@settings(max_examples=150, deadline=None)
@given(weighted_homogeneous_polys())
def test_block_rank_equals_flat_rank_on_weighted_homogeneous_polys(p):
    assert poly_rank(p) == coeff_matrix(p).compact().rank()
    for m in (3, 4):  # evaluation rank equals coefficient rank once every degree is < q
        if max(p.max_exponents()) < 1 << m:
            assert eval_matrix(p, GF2m(m)).rank() == poly_rank(p)
            break


def test_eval_rank_invariant_under_frobenius():
    rng = np.random.default_rng(53)
    f = GF2m(3)
    for _ in range(10):
        p = random_poly(rng, max_monos=6, max_exp=3)
        assert eval_matrix(p, f).rank() == eval_matrix(frobenius(p, 1), f).rank()


def test_eval_hadamard_bridge():
    # evaluation is multiplicative: the product evaluates to the entrywise
    # field product of the two evaluation matrices
    rng = np.random.default_rng(59)
    f = GF2m(2)
    for _ in range(15):
        p = random_poly(rng, max_monos=5, max_exp=2)
        q = random_poly(rng, max_monos=5, max_exp=2)
        left = eval_matrix(poly_mul(p, q), f).values
        right = f.mul_vec(eval_matrix(p, f).values, eval_matrix(q, f).values)
        assert np.array_equal(left, right)


def test_eval_of_full_power_is_the_complement_matrix():
    # d^(q-1) evaluates to the complement of the coset matrix entrywise
    for m in (2, 3):
        f = GF2m(m)
        q = 1 << m
        t = m  # 2^m - 1 = q - 1
        full = fermat_power(3, t)
        fm = eval_matrix(full, f)
        assert fm.values.max() <= 1
        w = w_matrix(coset_matrix(FamilyParams(3, m), f))
        assert np.array_equal(fm.values.astype(np.uint8), w.to_dense())


def test_reduce_mod_small_cases():
    p = SparsePoly.from_monomials([(0, 7, 8, 1), (8, 0, 0, 0), (1, 0, 0, 0), (15, 14, 0, 0)])
    # x1^8 = x1 on GF(8) cancels against x1; exponents 7 and 0 stay as they are
    assert mono_set(reduce_mod(p, 3)) == {Monomial(0, 7, 1, 1), Monomial(1, 7, 0, 0)}
    assert mono_set(reduce_mod(p, 1)) == {Monomial(0, 1, 1, 1), Monomial(1, 1, 0, 0)}
    assert reduce_mod(SparsePoly.one(), 2) == SparsePoly.one()
    with pytest.raises(ParameterError):
        reduce_mod(p, 0)


@settings(max_examples=100, deadline=None)
@given(monomial_lists(max_exp=40), st.sampled_from([2, 3]))
def test_reduce_mod_keeps_the_function_and_caps_exponents(monos, m):
    f = GF2m(m)
    p = SparsePoly.from_monomials(monos)
    reduced = reduce_mod(p, m)
    assert eval_matrix(reduced, f) == eval_matrix(p, f)
    assert all(e <= f.q - 1 for mon in reduced.monomials() for e in mon)
    # reduced monomials are a basis of the functions: coefficient rank = evaluation rank
    assert poly_rank(reduced) == eval_matrix(reduced, f).rank()


def test_eval_budget():
    # 129 monomials on the 4096 x 4096 grid of m = 6 need 129 * 2^24 > 2^31
    # lookups, while the 2^27-byte accumulator is inside the byte cap
    p = SparsePoly.from_monomials([(i, 0, 0, 0) for i in range(129)])
    with pytest.raises(BudgetError, match="exceeds the budget"):
        eval_matrix(p, GF2m(6))


def test_eval_accumulator_is_checked_before_allocating(monkeypatch):
    # m = 7 passes the work budget but its int64 accumulator would take 2 GiB
    fields = {m: GF2m(m) for m in (2, 3, 4, 7)}
    zeros, shapes = np.zeros, []

    def recording_zeros(shape, *args, **kwargs):
        shapes.append(shape)
        assert np.prod(shape) <= 1 << 16, f"np.zeros{shape} reached"  # never the 2 GiB one
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    with pytest.raises(BudgetError):
        eval_matrix(SparsePoly.one(), fields[7])
    assert shapes == []
    for m in (2, 3, 4):
        assert (eval_matrix(SparsePoly.one(), fields[m]).values == 1).all()
        assert (4 ** m, 4 ** m) in shapes


def test_certify_degenerate_and_base_cases():
    res = certify_unit_rate(1)
    assert res.certified and res.t == 1 and res.poly_rank == 2 and res.c_constant == 1

    res = certify_unit_rate(3)
    assert res.trace[0] == (1, 4, 4)  # not certified at t=1: rank 4 is not < 4
    assert res.certified and res.t == 2 and res.poly_rank == 12
    assert res.threshold == 16 and res.c_constant == 4

    with pytest.raises(ParameterError):
        certify_unit_rate(2)
    with pytest.raises(ParameterError):
        certify_unit_rate(3, t_max=0)


def test_certify_reports_failure_without_a_certificate():
    res = certify_unit_rate(7, t_max=3)
    assert not res.certified
    assert res.t == 3 and res.threshold == 64
    assert res.c_constant == 64  # an uncertified run counts the last rank as well
    assert res.poly_rank >= res.threshold
    assert [t for t, _, _ in res.trace] == [1, 2, 3]
    assert all(rank >= threshold for _, rank, threshold in res.trace)


def test_certification_result_reads_the_last_trace_row():
    res = certify_unit_rate(5, t_max=4)
    assert (res.t, res.poly_rank, res.threshold) == res.trace[-1]
    assert res.certified == (res.poly_rank < res.threshold)
    assert all(rank >= threshold for _, rank, threshold in res.trace[:-1])


def test_certify_budget_error_carries_partial_trace():
    # n = 4097 = 2^12 + 1: the t = 5 factor d^16 has exponent 4097 * 16 > 65535
    with pytest.raises(BudgetError) as err:
        certify_unit_rate(4097, t_max=6)
    assert err.value.trace == ((1, 4, 4), (2, 16, 16), (3, 64, 64), (4, 256, 256))


def test_certify_trace_regression_n7():
    # full rank trace for n = 7, frozen after first computation; only the
    # final entry is pinned by an external value, the rest are regression
    res = certify_unit_rate(7, t_max=6)
    assert res.trace == (
        (1, 8, 4),
        (2, 24, 16),
        (3, 64, 64),
        (4, 304, 256),
        (5, 1048, 1024),
        (6, 3256, 4096),
    )
    assert res.certified and res.c_constant == 1048


def test_block_rank_equals_flat_rank_for_n7_at_every_t():
    for t in range(1, 7):
        power = fermat_power(7, t)
        assert poly_rank(power) == coeff_matrix(power).compact().rank(), t


@pytest.mark.parametrize(
    "n, ranks",
    [
        (11, (8, 28, 102, 330, 1198, 4154, 15018)),
        (13, (8, 34, 94, 302, 1212, 4444, 14442)),
    ],
)
def test_certify_trace_regression_n11_n13(n, ranks):
    # the long certificates: only t = 7 certifies, with the ranks the extended claim pins
    res = certify_unit_rate(n, t_max=7)
    assert res.trace == tuple((t, rank, 4 ** t) for t, rank in enumerate(ranks, start=1))
    assert res.certified and res.t == 7


@pytest.mark.extended
@pytest.mark.parametrize("n, ranks", [
    (19, (8, 34, 170, 620, 2000, 6896, 23890, 85350, 302074, 1093896, 3961632)),
    (25, (8, 34, 194, 630, 1948, 6326, 21748, 81058, 311612, 1158034, 4044126)),
])
def test_certify_traces_to_t11(n, ranks):
    # past the benchmark's sizes, and neither n is 2^r + 1: both first certify
    # at t = 11, where the low halves hold 22039424 and 22791936 entries
    ranks = tuple((t, rank, 4 ** t) for t, rank in enumerate(ranks, start=1))
    res = certify_unit_rate(n, t_max=11)
    assert res.trace == ranks
    assert res.certified and res.t == 11 and res.c_constant == ranks[-2][1]


def test_product_of_the_n13_t7_power_reduces_its_pairs_in_place():
    # 197120 pairs of 8-byte sums take 1.6 MB; np.unique's sorted copy, index
    # and count arrays took the peak to 6.5 MB, about 33 bytes per pair
    d = fermat_power(13, 1)
    acc, f = fermat_power(13, 6), frobenius(d, 6)
    product, peak = traced_peak(poly_mul, acc, f)
    assert (len(acc) * len(f), len(product)) == (197120, 84192)
    assert peak <= 2_500_000


def test_certify_n13_ranks_half_of_each_power():
    # the t = 7 power has 84192 entries; its halves hold 42096 each, and only
    # one half is written at a time.  The whole rank peaked at 3.12 MB, and the
    # halves filtered from the whole power at 1.90 MB; written alone, the run
    # peaked at 1.57 MB, and with the rank of a half at under 20 bytes per
    # entry it peaks at 1.24 MB; the cap sits 10% above that
    res, peak = traced_peak(certify_unit_rate, 13, 7)
    assert res.trace[-1] == (7, 14442, 16384)
    assert peak <= 1_360_000


def test_certify_n13_holds_the_class_blocks_of_both_halves():
    # each half of the t = 7 power is 0.11 MB of class blocks, filled from
    # batches of 2048 entries beside the row and column marks of both halves;
    # the run peaks at 0.59 MB, and the cap sits 10% above that
    res, peak = traced_peak(certify_unit_rate, 13, 7)
    assert res.trace[-1] == (7, 14442, 16384)
    assert peak <= 651_000


def test_block_rank_of_the_n13_t7_power_holds_int32_labels():
    # 84192 entries, ranked in the polynomial's own codes; int64 sort keys and
    # positions beside them took 2.44 MB (29 bytes per entry), and packed-pair
    # labels with the positions written over them 1.52 MB (18.0); the cap sat
    # 10% above that.  Filling every stack at once from the labels takes
    # 1.61 MB (19.1), under the same cap
    power = fermat_power(13, 7)
    rank, peak = traced_peak(poly_rank, power)
    assert (len(power), rank) == (84192, 14442)
    assert peak <= 1_670_000


@pytest.mark.extended
def test_block_rank_of_the_n19_t9_low_half_holds_20_bytes_per_entry():
    # beside its 8-byte entries the rank of this half held 29.0 bytes per entry,
    # and now holds 16.1; about 6 s under tracemalloc
    total = 19 * ((1 << 9) - 1)
    [half] = fermat_power(19, 9, keep=[2 * np.arange(total + 1) < total])
    rank, peak = traced_peak(poly_rank, half)
    assert (len(half), rank) == (1110016, 151037)
    assert peak <= 20 * len(half)


def test_submultiplicativity_chain():
    # the evaluation rank of the full power is bounded by the certificate:
    # rank((d^(2^m - 1))) <= c * poly_rank(d^(2^t - 1)) ** ceil(m / t)
    res = certify_unit_rate(3, t_max=2)
    c, base_rank, t = res.c_constant, res.poly_rank, res.t
    for m in (3, 4):
        f = GF2m(m)
        fm = eval_matrix(fermat_power(3, m), f)
        assert fm.rank() <= c * base_rank ** math.ceil(m / t)
