"""Low-rank certificates: a finite computation that pins an asymptotic rate.

For d = (x1+y1)^n + x2 + y2, the coefficient matrix of d^(2^t - 1) has rows
indexed by the (e_x1, e_x2) exponent pairs and columns by (e_y1, e_y2).  If
its GF(2) rank drops below 4^t for some t, then the evaluation matrices of
every large family member factor through blocks of t doublings, and the
parity-check rank ratio of the family is forced to zero.

The search forms no product.  2^t - 1 has all t bits set, so d^(2^t - 1)
is the product of the t doubled copies d^(2^i), and picking one term from
each copy never gives two monomials the same (x2, y2) exponents: nothing
cancels.  Each choice gives the x2 and y2 exponents b and c and, per
submask j of the binomial's exponent (Lucas), one entry in row (j, b).
With x1 and y1 of weight 1 and x2 and y2 of weight n, a row of weight w
meets only columns of weight n (2^t - 1) - w, and j = w - n b, so each
weight class is a block indexed by b and c alone.  The search writes every
entry as one bit of its class's block, with no monomial codes.  d is
symmetric under (x1, x2) <-> (y1, y2), so the matrix is its own transpose,
and each t is ranked as twice the rank of the classes below half the
total weight; up to t = 7 the other half is written in the same pass and
ranked too, and must agree.
"""

import time

from storagecodes import certify_unit_rate

for n in (3, 5, 7):
    start = time.perf_counter()
    res = certify_unit_rate(n, t_max=6)
    elapsed = time.perf_counter() - start
    print(f"n = {n}:")
    for t, rank, threshold in res.trace:
        mark = "<" if rank < threshold else ">="
        print(f"  t={t}: rank {rank:>6} {mark} {threshold:>6}")
    if res.certified:
        print(f"  certified at t = {res.t} (rank {res.poly_rank} < 4^{res.t}), "
              f"c = {res.c_constant}, {elapsed:.1f}s")
    else:
        print(f"  no certificate up to t = {res.t}, {elapsed:.1f}s")
    print()

print("n = 7 needs the full t = 6 expansion (about 16k monomials; its rows")
print("below half the total weight are ranked one weight class at a time)")
print("and certifies with rank 3256 = 2 * 1628 against the threshold 4096.")
print("The n = 11 and n = 13 runs take under a second; the certify")
print("subcommand keeps --extended as a guard for them.")
