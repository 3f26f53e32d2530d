"""Cayley graphs on GF(q)^2 with connection set {(a, a^n) : a in GF(q)}.

Vertices are the q^2 pairs (x1, x2), encoded as the integer x1 * 2^m + x2
where x1, x2 are polynomial-basis bit patterns.  Two vertices are adjacent
iff their XOR is a nonzero connection vector; the zero vector (from a = 0)
belongs to the connection set but is dropped by the graph, which keeps it
simple.  In characteristic 2 every set is its own negative, so the graph is
undirected, and it is (2^m - 1)-regular.  A CayleyGraph holds nothing but
its steps, the distinct nonzero connection vectors: the neighbours of v are
v XOR s over the steps.

The triangle and connectivity checks each come in two flavours: a fast
criterion (a single-variable equation scan, and the GF(2)-span test, which
ranks the connection vectors as a BitMatrix) and a brute-force oracle on the
steps.  ``graph --check``, the graph-criteria claim and the tests run both
and require them to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix
from .errors import BudgetError, ParameterError, PropertyViolation
from .field import GF2m

#: default cap on num_vertices^2: the bits of a dense q^2 x q^2 matrix (2^31 bits = 256 MiB),
#: and for a graph a bound on the per-edge work of its oracles and edge export; admits m <= 7
DEFAULT_GRAPH_BUDGET_BITS = 1 << 31
_EXPORT_BLOCK = 512  # vertices per block of export_edges


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (n, m) of one family member: exponent n, field degree m.

    n must be odd and > 1.  Values of n above 2^m - 1 are accepted; the map
    a -> a^n is total for any exponent, the small fields simply wrap.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n <= 1 or self.n % 2 == 0:
            raise ParameterError(f"n={self.n}: the exponent must be an odd integer > 1")
        if self.m < 1:
            raise ParameterError(f"m={self.m}: the field degree must be positive")


def exponent_r_plus(n: int) -> int | None:
    """r if n == 2^r + 1, else None."""
    r = (n - 1).bit_length() - 1
    return r if n - 1 == 1 << r and r >= 1 else None


def exponent_r_minus(n: int) -> int | None:
    """r if n == 2^r - 1 with r >= 2, else None."""
    r = (n + 1).bit_length() - 1
    return r if n + 1 == 1 << r and r >= 2 else None


def encode_vertex(x1: int, x2: int, m: int) -> int:
    return (x1 << m) | x2


def connection_set(params: FamilyParams, field: GF2m) -> tuple[int, ...]:
    """The q vectors (a, a^n), (0, 0) included, canonically encoded and sorted."""
    if field.m != params.m:
        raise ParameterError(f"field degree {field.m} does not match m={params.m}")
    return tuple(sorted(encode_vertex(a, field.pow(a, params.n), field.m) for a in field.elements()))


@dataclass(frozen=True)
class CayleyGraph:
    """The graph on num_vertices vertices where v and v XOR s are adjacent
    for every step s, the steps being the distinct nonzero connection
    vectors, sorted; every vertex has one neighbour per step."""

    params: FamilyParams
    num_vertices: int
    steps: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.steps)

    def edge_count(self) -> int:
        return self.num_vertices * self.degree // 2


def build_graph(params: FamilyParams, field: GF2m) -> CayleyGraph:
    """The graph of (n, m), after checking num_vertices^2 against
    DEFAULT_GRAPH_BUDGET_BITS, which admits m <= 7."""
    n_vert = 1 << (2 * field.m)
    if n_vert * n_vert > DEFAULT_GRAPH_BUDGET_BITS:
        raise BudgetError(
            f"graph for m={field.m} has {n_vert}^2 vertex pairs, over budget {DEFAULT_GRAPH_BUDGET_BITS}"
        )
    steps = sorted(set(connection_set(params, field)) - {0})
    return CayleyGraph(params, n_vert, tuple(steps))


def is_triangle_free_criterion(params: FamilyParams, field: GF2m) -> bool:
    """Equation scan: triangle-free iff (x+1)^n = x^n + 1 has no solution
    with x outside {0, 1}.

    When n = 2^r + 1 (or 2^r - 1 with r >= 2) the answer is also given by
    gcd(r, m) = 1 (resp. gcd(r-1, m) = 1); both shortcuts are evaluated and
    checked against the scan, a disagreement being an implementation bug.
    """
    if field.m != params.m:
        raise ParameterError(f"field degree {field.m} does not match m={params.m}")
    n = params.n
    free = True
    for x in range(2, field.q):
        if field.pow(x ^ 1, n) == field.pow(x, n) ^ 1:
            free = False
            break
    r = exponent_r_plus(n)
    if r is not None and (math.gcd(r, field.m) == 1) != free:
        raise PropertyViolation(
            f"gcd shortcut disagrees with the equation scan for n=2^{r}+1, m={field.m}"
        )
    r = exponent_r_minus(n)
    if r is not None and (math.gcd(r - 1, field.m) == 1) != free:
        raise PropertyViolation(
            f"gcd shortcut disagrees with the equation scan for n=2^{r}-1, m={field.m}"
        )
    return free


def triangle_oracle(graph: CayleyGraph) -> bool:
    """Brute force: no three distinct steps XOR to zero.

    Scans all pairs with hashing, so O(q^2); meant for small m.
    """
    vecs = graph.steps
    vset = set(vecs)
    for i, a in enumerate(vecs):
        for b in vecs[i + 1 :]:
            # the steps are distinct and nonzero, so a ^ b is nonzero and differs from both
            if a ^ b in vset:
                return False
    return True


def is_connected(params: FamilyParams, field: GF2m) -> bool:
    """Connectivity via the span test.

    A Cayley graph on a GF(2)-vector space is connected iff its connection
    set spans the space, here iff the q vectors have rank 2m.
    """
    return BitMatrix.from_row_ints(connection_set(params, field), 2 * field.m).rank() == 2 * field.m


def bfs_connected(graph: CayleyGraph) -> bool:
    """Breadth-first search oracle for connectivity.

    Each level XORs the frontier with one step at a time and keeps the
    vertices not yet seen, so every vertex enters a frontier once.
    """
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = [frontier[:0]]
        for s in graph.steps:
            u = frontier ^ s
            u = u[~seen[u]]
            seen[u] = True
            reached.append(u)
        frontier = np.concatenate(reached)
    return bool(seen.all())


def export_edges(graph: CayleyGraph, sink) -> None:
    """Write the edge list as text: a header, then one "u v" line per edge
    with u < v, vertices in the canonical integer encoding.

    Lines come in order of u, then v.  The neighbours of u are u XOR s over
    the steps s, so each block of vertices takes its lines from one sorted
    XOR table.
    """
    p = graph.params
    sink.write(
        f"# cayley n={p.n} m={p.m} vertices={graph.num_vertices} edges={graph.edge_count()}\n"
    )
    steps = np.array(graph.steps, dtype=np.int64)
    for u0 in range(0, graph.num_vertices, _EXPORT_BLOCK):
        u = np.arange(u0, min(u0 + _EXPORT_BLOCK, graph.num_vertices), dtype=np.int64)[:, None]
        v = np.sort(u ^ steps, axis=1)
        upper = v > u
        pairs = np.stack([np.broadcast_to(u, v.shape)[upper], v[upper]], axis=1)
        sink.write(("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
