"""Tour of the Cayley graph family Cay(GF(q)^2, {(a, a^n)} \\ {0}).

For each odd exponent n the connection set is the graph of a -> a^n.  Two
single-line criteria decide the interesting structure:

  * triangle-free  <->  (x+1)^n = x^n + 1 has no solution outside {0, 1};
    for n = 2^r + 1 this reduces to gcd(r, m) = 1, for n = 2^r - 1 (r >= 2)
    to gcd(r-1, m) = 1.
  * connected  <->  the q connection vectors span the 2m-dimensional
    GF(2)-space.

Both are cross-checked here against brute force on the built graphs.
"""

import io

from storagecodes import (
    FamilyParams,
    GF2m,
    build_graph,
    export_edges,
    is_connected,
    is_triangle_free_criterion,
    triangle_oracle,
)
from storagecodes.graphs import bfs_connected

print(f"{'n':>3} {'m':>3} {'vertices':>9} {'degree':>7} {'edges':>7} "
      f"{'triangle-free':>14} {'connected':>10}")
for n in (3, 5, 7, 9):
    for m in (1, 2, 3, 4):
        field = GF2m(m)
        params = FamilyParams(n, m)
        g = build_graph(params, field)
        tf = is_triangle_free_criterion(params, field)
        conn = is_connected(params, field)
        assert triangle_oracle(g) == tf
        assert bfs_connected(g) == conn
        print(f"{n:>3} {m:>3} {g.num_vertices:>9} {g.degree:>7} "
              f"{g.edge_count():>7} {str(tf):>14} {str(conn):>10}")
    print()

print("The n = 3 members are triangle-free at every size; n = 5 drops")
print("triangles only when gcd(2, m) = 1, i.e. at odd m.")

print("\nEdge list of the smallest member (a perfect matching on 4 vertices):")
g = build_graph(FamilyParams(3, 1), GF2m(1))
buf = io.StringIO()
export_edges(g, buf)
print(buf.getvalue())
