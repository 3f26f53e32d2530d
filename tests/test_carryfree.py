import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storagecodes.carryfree import (
    Zsqrt2,
    b_set,
    count_nm,
    fifteen_sixteenths_bound,
    nm_bound,
    nm_closed_form,
    nm_growth_bound_holds,
    nm_long_recurrence,
    nm_recurrence,
)
from storagecodes.errors import BudgetError, ParameterError

from oracles import b_set_by_pair_scan, b_values_by_sets


def test_b_set_examples():
    assert b_set(0, 1) == [0]
    assert b_set(0, 5) == [0]
    assert b_set(1, 1) == [0, 1, 2]
    assert b_set(1, 3) == [0, 1, 8]
    assert b_set(3, 1) == list(range(7))
    assert len(b_set(2, 1)) == 3


def test_b_set_against_pair_scan_oracle():
    for r in (1, 2, 3):
        for s in range(64):
            assert b_set(s, r) == b_set_by_pair_scan(s, r)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = int(rng.integers(64, 300))
        r = int(rng.integers(1, 4))
        assert b_set(s, r) == b_set_by_pair_scan(s, r)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 10) - 1), st.integers(1, 48))
def test_b_set_against_set_and_pair_scan_oracles(s, r):
    # r runs past s's bit length and past 64, where masks and values split
    want = sorted(b_values_by_sets(s, r))
    assert b_set(s, r) == want
    assert b_set_by_pair_scan(s, r) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(1, 12))
def test_count_nm_against_set_oracle_sum(m, r):
    assert count_nm(m, r) == sum(len(b_values_by_sets(s, r)) for s in range(1 << m))


def test_count_nm_goldens():
    # m = 13 values from set enumeration; the r >= m and r = 40 rows are 4^m
    assert [count_nm(13, r) for r in (1, 2, 3, 4)] == [10340096, 15573946, 19856588, 23883734]
    assert count_nm(12, 12) == 4 ** 12
    assert count_nm(4, 40) == 256


def test_b_set_rejects_masks_over_the_width_cap():
    # s = 2^23 + 1 keeps masks 2^25 bits wide: bit 0 gives {0, 1, 2}, bit 23 {0, 2^23, 2^24}
    assert b_set((1 << 23) | 1, 1) == [h + v for h in (0, 1 << 23, 1 << 24) for v in (0, 1, 2)]
    with pytest.raises(BudgetError):
        b_set(1 << 24, 1)


def test_pair_count_identity():
    # sum over s < 2^k of 3^popcount(s) equals 4^k
    for k in range(13):
        assert sum(3 ** bin(s).count("1") for s in range(1 << k)) == 4 ** k


def test_b_set_size_is_three_power_below_r():
    for r in (1, 2, 3, 4):
        for k in range(r + 1):
            for s in range(1 << k):
                assert len(b_set(s, r)) == 3 ** bin(s).count("1")


def test_count_nm_small_values():
    assert count_nm(1, 1) == 4
    assert count_nm(2, 1) == 14
    assert count_nm(3, 1) == 48
    for r in (1, 2, 3, 4):
        for k in range(r + 1):
            assert count_nm(k, r) == 4 ** k


def test_count_nm_budget_error():
    # the cap is 4^14 digit assignments: m = 14 is the largest m inside it
    assert count_nm(14, 1) == nm_recurrence(14)
    with pytest.raises(BudgetError):
        count_nm(15, 1)


def test_recurrence_values():
    assert nm_recurrence(0) == 1
    assert nm_recurrence(1) == 4
    assert nm_recurrence(2) == 14
    assert nm_recurrence(4) == 164
    assert nm_closed_form(0) == 1
    assert nm_closed_form(2) == 14
    assert nm_closed_form(5) == 560
    assert nm_long_recurrence(1) == 4
    assert nm_long_recurrence(2) == 14
    assert nm_long_recurrence(6) == nm_recurrence(6)


def test_sequences_agree_with_enumeration():
    for m in range(9):
        want = count_nm(m, 1)
        assert nm_recurrence(m) == want
        assert nm_closed_form(m) == want
        if m >= 1:
            assert nm_long_recurrence(m) == want


def test_all_ones_law():
    for i in range(1, 13):
        assert len(b_set((1 << (i - 1)) - 1, 1)) == (1 << i) - 1


def test_split_law_general_r():
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = int(rng.integers(1, 1 << 10))
        k = int(rng.integers(1, 10))
        r = int(rng.integers(1, 3))
        lo, hi = s & ((1 << k) - 1), s >> k
        combined = sorted({(h << k) + l for h in b_set(hi, r) for l in b_set(lo, r)})
        assert combined == b_set(s, r)


def test_product_law_needs_zero_gap():
    rng = np.random.default_rng(4)
    for _ in range(60):
        hi = int(rng.integers(1, 64))
        k = int(rng.integers(0, 6))
        lo = int(rng.integers(0, 1 << k)) if k else 0
        s = (hi << (k + 1)) | lo  # one guaranteed zero digit between the parts
        assert len(b_set(s, 1)) == len(b_set(hi, 1)) * len(b_set(lo, 1))


def test_zsqrt2_arithmetic():
    a = Zsqrt2(2, 1)
    b = Zsqrt2(-1, 3)
    assert a * b == Zsqrt2(2 * -1 + 2 * 1 * 3, 2 * 3 + 1 * -1)
    assert a + b == Zsqrt2(1, 4)
    assert a - b == Zsqrt2(3, -2)
    assert a ** 0 == Zsqrt2(1, 0)
    p = Zsqrt2(1, 0)
    for _ in range(7):
        p = p * a
    assert a ** 7 == p


def test_zsqrt2_sign_against_floats():
    import math

    for u in range(-20, 21):
        for v in range(-20, 21):
            val = u + v * math.sqrt(2)
            want = 0 if u == 0 and v == 0 else (1 if val > 0 else -1)
            assert Zsqrt2(u, v).sign() == want


def test_closed_form_equals_integer_part_of_conjugate_pair():
    # (2 + sqrt(2))^m = u + v*sqrt(2) and the closed form collapses to u + 2v
    p = Zsqrt2(2, 1) ** 5
    assert p == Zsqrt2(232, 164)
    assert nm_closed_form(5) == 232 + 2 * 164


def test_growth_bound_holds_exactly():
    for m in range(13):
        assert nm_growth_bound_holds(m, nm_closed_form(m))


def test_fifteen_sixteenths_bound_values():
    assert fifteen_sixteenths_bound(3, 2) == 15 * 4  # t = 1
    assert fifteen_sixteenths_bound(2, 2) == 16  # t = 0
    assert fifteen_sixteenths_bound(6, 2) == 15 ** 2 * 4 ** 2


def test_nm_bound_examples():
    assert nm_bound(2, 1) == (14, True)
    value, holds = nm_bound(3, 2)
    assert value == 58 and holds and value <= 60
    value, holds = nm_bound(8, 2)
    assert holds
    value, holds = nm_bound(4, 3)
    assert value == 234 and value <= 15 * 4 ** 2 and holds


def test_parameter_validation():
    with pytest.raises(ParameterError):
        b_set(-1, 1)
    with pytest.raises(ParameterError):
        b_set(3, 0)
    with pytest.raises(ParameterError):
        count_nm(-1, 1)
    with pytest.raises(ParameterError):
        nm_long_recurrence(0)
