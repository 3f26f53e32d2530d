"""Acceptance suite: one test per verification claim.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red test pinpoints the claim and its detail string.  All
comparisons inside the claims are exact; there are no tolerances to tune.

Known red entry: the strict-decrease clause of ``rank-ratio-trend`` fails
because the parity-check rank ratio is exactly 1/2 at both of the two
smallest sizes (ranks 2/4 and 8/16, re-derived by an independent span
oracle in test_storage/test_bitmatrix).  The assertion is kept strict
rather than weakened to "non-increasing"; the ratio does decrease strictly
from the second size onward.

The ``certificates-extended`` claim (n = 11 and n = 13) runs only under
``pytest -m extended``; test_polyf2 pins the same rank traces in the default run.
"""

import pytest

from storagecodes import verification


def _run(name: str) -> None:
    claim = next(c for c in verification.CLAIMS if c.name == name)
    res = verification.run_claim(claim)
    status = "PASS" if res.ok else "FAIL"
    print(f"{status}  {name}: {res.detail} ({res.elapsed_ms} ms)")
    assert res.ok, f"{name}: {res.detail}"


def test_criterion_01_counting_goldens():
    _run("counting-goldens")


def test_criterion_02_sequence_agreement():
    _run("sequence-agreement")


def test_criterion_03_bset_structure_laws():
    _run("bset-structure-laws")


def test_criterion_04_generalized_counting():
    _run("generalized-counting")


def test_criterion_05_rank_sandwich_and_substitution():
    _run("rank-sandwich-substitution")


def test_criterion_06_rank_counting_bound():
    _run("rank-counting-bound")


def test_criterion_07_rank_ratio_trend():
    _run("rank-ratio-trend")


def test_criterion_08_graph_criteria():
    _run("graph-criteria")


def test_criterion_09_repair_property():
    _run("repair-property")


def test_criterion_10_rank_product_laws():
    _run("rank-product-laws")


def test_criterion_11_certificate_base():
    _run("certificate-base")


@pytest.mark.extended
def test_criterion_12_certificates_extended():
    _run("certificates-extended")
