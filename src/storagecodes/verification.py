"""One-shot verification of every checkable claim, at two budgets.

Each claim is a named function returning (ok, detail).  The registry drives
both the CLI ``verify-all`` subcommand and the acceptance test module, so
there is a single definition of what gets checked.

A claim takes only the seed: its parameter ranges are fixed, and the
budget only selects which claims run.  Within one ``run_all`` the rank
claims share one ``storage.code_report`` per (n, m); a claim called on its
own computes its reports afresh.

Budgets:
    full      the eleven core claims, including the t=6 certificate
    extended  adds the two long certificates for n = 11 and n = 13
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import bitmatrix, carryfree, graphs, polyf2, storage
from .errors import ParameterError
from .field import GF2m
from .graphs import FamilyParams

FULL, EXTENDED = "full", "extended"
BUDGETS = (FULL, EXTENDED)

DEFAULT_SEED = 2024

_reports: dict[tuple[int, int], storage.CodeReport] | None = None  # run_all's (n, m) memo


def _code_report(n: int, m: int) -> storage.CodeReport:
    """storage.code_report of (n, m), made once per run_all."""
    if _reports is None:
        return storage.code_report(FamilyParams(n, m))
    if (n, m) not in _reports:
        _reports[n, m] = storage.code_report(FamilyParams(n, m))
    return _reports[n, m]


@dataclass(frozen=True)
class ClaimResult:
    name: str
    ok: bool
    detail: str
    elapsed_ms: int


# ----------------------------------------------------------------------
# claim bodies; each returns (ok, detail)
# ----------------------------------------------------------------------

def claim_counting_goldens(seed: int):
    """b_0..b_3 and the first two N values, exact."""
    got_b = [len(carryfree.b_set(s, 1)) for s in range(4)]
    got_n = [carryfree.count_nm(m, 1) for m in (1, 2)]
    ok = got_b == [1, 3, 3, 7] and got_n == [4, 14]
    return ok, f"b_0..b_3={got_b} N_1,N_2={got_n}"


def claim_sequence_agreement(seed: int):
    """Enumeration, both recurrences and the closed form agree."""
    top = 12
    bad = []
    for m in range(top + 1):
        vals = {carryfree.count_nm(m, 1), carryfree.nm_recurrence(m), carryfree.nm_closed_form(m)}
        if m >= 1:
            vals.add(carryfree.nm_long_recurrence(m))
        if len(vals) != 1:
            bad.append(m)
    return not bad, f"m<=:{top} disagreements={bad or 'none'}"


def claim_bset_structure_laws(seed: int):
    """Split, product and all-ones laws for the b-sets (r = 1)."""
    top_bits = 12
    lim = 1 << top_bits
    sizes = {}

    def b_size(s):
        if s not in sizes:
            sizes[s] = carryfree._b_size(s, 1)
        return sizes[s]

    # all-ones law: |b_set(2^(i-1) - 1)| = 2^i - 1
    for i in range(1, top_bits + 1):
        if b_size((1 << (i - 1)) - 1) != (1 << i) - 1:
            return False, f"all-ones law fails at i={i}"
    # product law at every internal zero digit, every s
    for s in range(lim):
        for z in range(1, s.bit_length()):
            if not (s >> z) & 1 and (s >> (z + 1)):
                lo = s & ((1 << z) - 1)
                hi = s >> (z + 1)
                if b_size(s) != b_size(hi) * b_size(lo):
                    return False, f"product law fails at s={s}, gap bit {z}"
    # split law on random split points, as full sets
    rng = random.Random(seed)
    trials = 200
    for _ in range(trials):
        s = rng.randrange(lim)
        k = rng.randrange(1, top_bits)
        lo_set = carryfree.b_set(s & ((1 << k) - 1), 1)
        hi_set = carryfree.b_set(s >> k, 1)
        combined = sorted({(h << k) + l for h in hi_set for l in lo_set})
        if combined != carryfree.b_set(s, 1):
            return False, f"split law fails at s={s}, k={k}"
    return True, f"s<2^{top_bits}, {trials} random splits"


def claim_generalized_counting(seed: int):
    """Generalized counts: 4^k below r, the r+1 cap, the 15/16-power bound."""
    for r in range(1, 5):
        for k in range(r + 1):
            if carryfree.count_nm(k, r) != 4 ** k:
                return False, f"count mismatch at k={k}, r={r}"
    for r in (2, 3):
        val = carryfree.count_nm(r + 1, r)
        if val > 15 * 4 ** (r - 1):
            return False, f"r+1 cap fails at r={r}: {val}"
    top = 10
    for m in range(top + 1):
        value, holds = carryfree.nm_bound(m, 2)
        if not holds:
            return False, f"15/16 bound fails at m={m}, r=2 (N={value})"
    return True, f"r<=4 prefix counts, r+1 caps, 15/16 bound to m={top}"


def claim_rank_sandwich_substitution(seed: int):
    """|rank(H) - rank(W)| <= 1 and rank(W) = rank(D), family n = 3."""
    top = 5
    details = []
    for m in range(1, top + 1):
        rep = _code_report(3, m)
        details.append((m, rep.rank_h, rep.rank_w, rep.rank_d))
        if not (rep.sandwich_ok and rep.substitution_ok):
            return False, f"fails at m={m}: H={rep.rank_h} W={rep.rank_w} D={rep.rank_d}"
    return True, "ranks " + " ".join(f"m={m}:{h}/{w}/{d}" for m, h, w, d in details)


def claim_rank_counting_bound(seed: int):
    """rank(D) <= N_m for n = 3 (r=1) and n = 5, 9 (r = 2, 3)."""
    for n, top in ((3, 5), (5, 4), (9, 4)):
        for m in range(1, top + 1):
            rep = _code_report(n, m)
            if not rep.nm_ok:
                return False, f"n={n} m={m}: rank(D)={rep.rank_d} > N_m={rep.n_m}"
    return True, "all pairs inside the monomial-count bound"


def claim_rank_ratio_trend(seed: int):
    """rank(H_m)/4^m strictly decreasing and <= (N_m + 1)/4^m, n = 3, m = 1..6.

    Note: the computed ranks give the exact ratio 1/2 at both m = 1 and
    m = 2, so the strict-decrease clause fails at the first step; it is
    asserted unweakened on purpose and reported honestly.  The decrease is
    strict from m = 2 on, and every other clause holds.
    """
    from fractions import Fraction

    top = 6
    ratios = []
    for m in range(1, top + 1):
        rep = _code_report(3, m)
        rank_h, n_m = rep.rank_h, rep.n_m
        size = 4 ** m
        ratios.append(Fraction(rank_h, size))
        if Fraction(rank_h, size) > Fraction(n_m + 1, size):
            return False, f"m={m}: rank(H)={rank_h} above N_m+1={n_m + 1}"
        if not carryfree.nm_growth_bound_holds(m, n_m):
            return False, f"m={m}: N_m growth bound fails in Z[sqrt(2)]"
    strictly = all(b < a for a, b in zip(ratios, ratios[1:]))
    detail = "ratios " + ", ".join(str(x) for x in ratios)
    if not strictly:
        return False, detail + " (not strictly decreasing)"
    return True, detail


def claim_graph_criteria(seed: int):
    """Triangle scans vs gcd rules vs brute force; span vs BFS; edge counts."""
    top_m = 5
    fields = {m: GF2m(m) for m in range(1, top_m + 1)}
    # for every odd n <= 15: triangle criterion vs brute force, connectivity
    # (span test vs BFS), regularity and edge count
    for n in range(3, 16, 2):
        for m in range(1, top_m + 1):
            f = fields[m]
            params = FamilyParams(n, m)
            g = graphs.build_graph(params, f)
            if graphs.triangle_oracle(g) != graphs.is_triangle_free_criterion(params, f):
                return False, f"triangle oracle disagrees at n={n}, m={m}"
            span = graphs.is_connected(params, f)
            if span != graphs.bfs_connected(g):
                return False, f"connectivity mismatch at n={n}, m={m}"
            if (1 << m) > (n - 1) ** 2 and not span:
                return False, f"span theorem instance fails at n={n}, m={m}"
            q = 1 << m
            if g.degree != q - 1:  # a Cayley graph has the same degree at every vertex
                return False, f"regularity fails at n={n}, m={m}"
            if g.edge_count() != 4 ** m * (q - 1) // 2:
                return False, f"edge count off at n={n}, m={m}"
    return True, f"n odd <= 15, m <= {top_m}"


def claim_repair_property(seed: int):
    """Seeded codewords repair everywhere; one-bit corruptions never do."""
    count = 100
    rng = random.Random(seed + 1)
    for n in (3, 5):
        for m in (2, 3):
            f = GF2m(m)
            params = FamilyParams(n, m)
            h = storage.coset_matrix(params, f)
            g = graphs.build_graph(params, f)
            words = storage.sample_codewords(h, count, seed=seed + 1000 * n + m)
            for w in words:
                if not storage.verify_repair(g, w):
                    return False, f"codeword fails repair at n={n}, m={m}"
                flip = rng.randrange(g.num_vertices)
                if storage.verify_repair(g, w ^ (1 << flip)):
                    return False, f"corrupted word passes at n={n}, m={m}"
    return True, f"{count} samples per member, corruptions rejected"


def claim_rank_product_laws(seed: int):
    """Tensor multiplicativity, entrywise submultiplicativity, doubling
    invariance, and evaluation rank = coefficient rank for large fields."""
    rng = random.Random(seed + 2)
    trials = 100
    for _ in range(trials):
        a, b = _random_matrix(rng, 6, 6), _random_matrix(rng, 6, 6)
        if a.tensor(b).rank() != a.rank() * b.rank():
            return False, "tensor rank multiplicativity fails"
    for _ in range(trials):
        a, b = _random_matrix(rng, 8, 8), _random_matrix(rng, 8, 8)
        if a.hadamard(b).rank() > a.rank() * b.rank():
            return False, "entrywise-product rank bound fails"
    poly_trials = 50
    for k in range(poly_trials):
        p = _random_poly(rng, max_monos=50, max_exp=9)
        r0 = polyf2.poly_rank(p)
        if polyf2.poly_rank(polyf2.frobenius(p, 1 + k % 3)) != r0:
            return False, "doubling changes the coefficient rank"
    for k in range(poly_trials):
        f = GF2m(3) if k % 2 == 0 else GF2m(4)
        p = _random_poly(rng, max_monos=12, max_exp=6)
        if polyf2.eval_matrix(p, f).rank() != polyf2.poly_rank(p):
            return False, f"evaluation rank mismatch over GF(2^{f.m})"
    return True, f"{trials} matrix pairs, {poly_trials} polynomials per law"


def claim_certificate_base(seed: int):
    """The t = 6 certificate for n = 7: rank 3256 against threshold 4096."""
    res = polyf2.certify_unit_rate(7, t_max=6)
    ok = res.certified and res.t == 6 and res.poly_rank == 3256 and res.threshold == 4096
    return ok, f"n=7: t={res.t} rank={res.poly_rank} threshold={res.threshold}"


def claim_certificates_extended(seed: int):
    """The two long certificates: n = 11 and n = 13 at t = 7."""
    got = []
    for n, expected in ((11, 15018), (13, 14442)):
        res = polyf2.certify_unit_rate(n, t_max=7)
        got.append((n, res.poly_rank, res.certified))
        if not (res.certified and res.t == 7 and res.poly_rank == expected):
            return False, f"n={n}: got rank {res.poly_rank}, expected {expected}"
    return True, " ".join(f"n={n}:rank={r}" for n, r, _ in got)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> bitmatrix.BitMatrix:
    return bitmatrix.BitMatrix.from_row_ints((rng.getrandbits(cols) for _ in range(rows)), cols)


def _random_poly(rng: random.Random, max_monos: int, max_exp: int) -> polyf2.SparsePoly:
    k = rng.randint(1, max_monos)
    mons = [tuple(rng.randint(0, max_exp) for _ in range(4)) for _ in range(k)]
    return polyf2.SparsePoly.from_monomials(mons)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    name: str
    description: str
    level: str  # minimum budget at which the claim runs
    fn: Callable[[int], tuple[bool, str]]  # seed -> (ok, detail)


CLAIMS: tuple[Claim, ...] = (
    Claim("counting-goldens", "b-set sizes and first N values", FULL, claim_counting_goldens),
    Claim("sequence-agreement", "enumeration = recurrences = closed form", FULL, claim_sequence_agreement),
    Claim("bset-structure-laws", "split, product and all-ones laws", FULL, claim_bset_structure_laws),
    Claim("generalized-counting", "prefix counts, r+1 cap, 15/16-power bound", FULL, claim_generalized_counting),
    Claim("rank-sandwich-substitution", "complement sandwich and relabelling invariance", FULL, claim_rank_sandwich_substitution),
    Claim("rank-counting-bound", "rank(D) within the monomial count", FULL, claim_rank_counting_bound),
    Claim("rank-ratio-trend", "parity-check rank ratio trend and growth bound", FULL, claim_rank_ratio_trend),
    Claim("graph-criteria", "triangle and connectivity criteria vs oracles", FULL, claim_graph_criteria),
    Claim("repair-property", "sampled codewords repair, corruptions fail", FULL, claim_repair_property),
    Claim("rank-product-laws", "tensor, entrywise, doubling and evaluation laws", FULL, claim_rank_product_laws),
    Claim("certificate-base", "the first certifying exponent for n = 7", FULL, claim_certificate_base),
    Claim("certificates-extended", "long certificates for n = 11 and n = 13", EXTENDED, claim_certificates_extended),
)


def claims_for_budget(budget: str) -> list[Claim]:
    if budget not in BUDGETS:
        raise ParameterError(f"unknown budget {budget!r}")
    return [c for c in CLAIMS if BUDGETS.index(c.level) <= BUDGETS.index(budget)]


def run_claim(claim: Claim, seed: int = DEFAULT_SEED) -> ClaimResult:
    start = time.perf_counter()
    ok, detail = claim.fn(seed)
    elapsed = int(1000 * (time.perf_counter() - start))
    return ClaimResult(claim.name, ok, detail, elapsed)


def run_all(budget: str, seed: int = DEFAULT_SEED, *, sink) -> list[ClaimResult]:
    """Run the claims the budget selects, printing one line per claim."""
    global _reports
    if seed < 0:
        raise ParameterError(f"seed={seed}: need a non-negative integer")
    results = []
    _reports = {}
    try:
        for claim in claims_for_budget(budget):
            res = run_claim(claim, seed)
            results.append(res)
            status = "PASS" if res.ok else "FAIL"
            sink.write(f"{status}  {claim.name}: {claim.description} [{res.detail}] ({res.elapsed_ms} ms)\n")
    finally:
        _reports = None
    return results
