import io
import math

import numpy as np
import pytest

from storagecodes import graphs, verification
from storagecodes.errors import BudgetError, ParameterError
from storagecodes.field import GF2m
from storagecodes.graphs import (
    CayleyGraph,
    FamilyParams,
    bfs_connected,
    build_graph,
    connection_set,
    encode_vertex,
    exponent_r_minus,
    exponent_r_plus,
    export_edges,
    is_connected,
    is_triangle_free_criterion,
    triangle_oracle,
)

from oracles import export_edges_by_neighbors, pivot_rank, traced_peak


def test_params_validation():
    FamilyParams(3, 1)
    with pytest.raises(ParameterError):
        FamilyParams(4, 2)
    with pytest.raises(ParameterError):
        FamilyParams(1, 2)
    with pytest.raises(ParameterError):
        FamilyParams(3, 0)


def test_exponent_pattern_helpers():
    assert exponent_r_plus(3) == 1 and exponent_r_minus(3) == 2
    assert exponent_r_plus(5) == 2 and exponent_r_minus(5) is None
    assert exponent_r_plus(9) == 3 and exponent_r_minus(7) == 3
    assert exponent_r_plus(7) is None
    assert exponent_r_plus(11) is None and exponent_r_minus(11) is None
    assert exponent_r_minus(15) == 4


def test_connection_set_small_examples():
    f1 = GF2m(1)
    cs = connection_set(FamilyParams(3, 1), f1)
    assert cs == (0, 3)  # (0,0) and (1,1)

    f2 = GF2m(2)
    cs = connection_set(FamilyParams(3, 2), f2)
    # a^3 = 1 for every nonzero a in GF(4)
    assert cs == tuple(sorted([0] + [encode_vertex(a, 1, 2) for a in range(1, 4)]))

    f3 = GF2m(3)
    cs = connection_set(FamilyParams(3, 3), f3)
    assert len(cs) == 8
    cubes = {v & 7 for v in cs if v >> 3}
    assert len(cubes) == 7  # cubing permutes the nonzero elements, gcd(3, 7) = 1


def test_connection_set_field_mismatch():
    with pytest.raises(ParameterError):
        connection_set(FamilyParams(3, 2), GF2m(3))


def test_build_graph_statistics():
    for m, verts, deg, edges in ((1, 4, 1, 2), (2, 16, 3, 24), (3, 64, 7, 224)):
        g = build_graph(FamilyParams(3, m), GF2m(m))
        assert g.num_vertices == verts
        assert g.degree == deg
        assert all(len({v ^ s for s in g.steps}) == deg for v in range(verts))
        assert g.edge_count() == edges


def test_graph_is_simple_and_symmetric():
    g = build_graph(FamilyParams(5, 3), GF2m(3))
    for v in range(g.num_vertices):
        neighbours = {v ^ s for s in g.steps}
        assert v not in neighbours  # no loop
        for u in neighbours:
            assert v in {u ^ s for s in g.steps}


def test_build_graph_holds_no_per_vertex_data():
    # one Python-int adjacency row per vertex took the m = 7 peak to 34.5 MB
    field = GF2m(7)
    g, peak = traced_peak(build_graph, FamilyParams(3, 7), field)
    assert (g.num_vertices, g.degree) == (1 << 14, 127)
    assert peak <= 1 << 20, f"build_graph peaked at {peak} bytes"


def test_a_repeated_connection_vector_lowers_the_degree_and_fails_the_claim(monkeypatch):
    listed = graphs.connection_set

    def repeated(params, field):  # the second-to-last vector in place of the last
        vecs = listed(params, field)
        return vecs[:-1] + vecs[-2:-1]

    monkeypatch.setattr(graphs, "connection_set", repeated)
    g = build_graph(FamilyParams(3, 3), GF2m(3))
    assert g.degree == 8 - 2
    assert g.edge_count() == 64 * 6 // 2
    assert verification.claim_graph_criteria(0) == (False, "regularity fails at n=3, m=1")


def test_build_graph_budget():
    with pytest.raises(BudgetError):
        build_graph(FamilyParams(3, 8), GF2m(8))


def test_triangle_criterion_known_cases():
    assert is_triangle_free_criterion(FamilyParams(3, 4), GF2m(4))
    assert not is_triangle_free_criterion(FamilyParams(5, 2), GF2m(2))
    assert not is_triangle_free_criterion(FamilyParams(7, 4), GF2m(4))
    assert is_triangle_free_criterion(FamilyParams(7, 3), GF2m(3))
    assert is_triangle_free_criterion(FamilyParams(9, 4), GF2m(4))
    assert not is_triangle_free_criterion(FamilyParams(9, 3), GF2m(3))


def test_triangle_criterion_matches_gcd_rules():
    for m in range(1, 9):
        f = GF2m(m)
        for r in (1, 2, 3):
            n = (1 << r) + 1
            if n > 1:
                assert is_triangle_free_criterion(FamilyParams(n, m), f) == (math.gcd(r, m) == 1)
        for r in (2, 3, 4):
            n = (1 << r) - 1
            assert is_triangle_free_criterion(FamilyParams(n, m), f) == (math.gcd(r - 1, m) == 1)


def test_triangle_oracle_agrees_with_criterion():
    for n in (3, 5, 7, 9, 11, 13, 15):
        for m in range(1, 5):
            f = GF2m(m)
            params = FamilyParams(n, m)
            g = build_graph(params, f)
            assert triangle_oracle(g) == is_triangle_free_criterion(params, f), (n, m)


def test_triangle_oracle_specific_values():
    assert triangle_oracle(build_graph(FamilyParams(3, 3), GF2m(3)))
    assert not triangle_oracle(build_graph(FamilyParams(5, 2), GF2m(2)))


def test_connectivity_equals_pivot_rank_of_connection_set():
    for n in range(3, 16, 2):
        for m in range(1, 6):
            f = GF2m(m)
            params = FamilyParams(n, m)
            want = pivot_rank(connection_set(params, f)) == 2 * m
            assert is_connected(params, f) == want, (n, m)


def test_connectivity_known_cases():
    assert not is_connected(FamilyParams(3, 2), GF2m(2))  # span is 3-dimensional
    assert is_connected(FamilyParams(3, 3), GF2m(3))
    for m in (3, 4, 5):  # n = 2^1 + 1, connected whenever m > 2
        assert is_connected(FamilyParams(3, m), GF2m(m))
    for m in (5, 6):  # n = 2^2 + 1, connected whenever m > 4
        assert is_connected(FamilyParams(5, m), GF2m(m))


def test_connectivity_span_equals_bfs():
    for n in range(3, 16, 2):
        for m in range(1, 5):
            f = GF2m(m)
            params = FamilyParams(n, m)
            want = bfs_connected(build_graph(params, f))
            assert is_connected(params, f) == want, (n, m)


def test_bfs_equals_pivot_rank_on_random_step_sets():
    # step sets outside the family: k-bit vectors, drawn either from the
    # whole space or with one bit cleared, so both outcomes come up
    rng = np.random.default_rng(61)
    outcomes = set()
    for k in range(1, 11):
        for _ in range(6):
            drawn = rng.integers(1, 1 << k, size=int(rng.integers(1, k + 3)))
            if rng.integers(2):
                drawn &= ~(1 << int(rng.integers(k)))
            steps = tuple(sorted(set(drawn.tolist()) - {0}))
            want = pivot_rank(steps) == k
            assert bfs_connected(CayleyGraph(FamilyParams(3, 1), 1 << k, steps)) == want, (k, steps)
            outcomes.add(want)
    assert outcomes == {False, True}


def test_bfs_with_no_steps():
    assert bfs_connected(CayleyGraph(FamilyParams(3, 1), 1, ()))
    assert not bfs_connected(CayleyGraph(FamilyParams(3, 1), 4, ()))


def test_graph_criteria_claim_checks_the_triangle_oracle_for_every_n(monkeypatch):
    criterion = graphs.is_triangle_free_criterion

    def flipped_at_11(params, field):
        free = criterion(params, field)
        return not free if params.n == 11 else free

    monkeypatch.setattr(graphs, "is_triangle_free_criterion", flipped_at_11)
    assert verification.claim_graph_criteria(0) == (False, "triangle oracle disagrees at n=11, m=1")


def test_connectivity_theorem_instances():
    for n in range(3, 16, 2):
        for m in range(1, 6):
            if (1 << m) > (n - 1) ** 2:
                assert is_connected(FamilyParams(n, m), GF2m(m)), (n, m)


def test_export_edges_smallest_member():
    g = build_graph(FamilyParams(3, 1), GF2m(1))
    buf = io.StringIO()
    export_edges(g, buf)
    assert buf.getvalue() == "# cayley n=3 m=1 vertices=4 edges=2\n0 3\n1 2\n"


def test_export_edges_round_trip():
    g = build_graph(FamilyParams(3, 2), GF2m(2))
    buf = io.StringIO()
    export_edges(g, buf)
    lines = buf.getvalue().splitlines()
    header = lines[0]
    assert header == f"# cayley n=3 m=2 vertices=16 edges={g.edge_count()}"
    assert g.edge_count() == 4 ** 2 * (2 ** 2 - 1) // 2
    adjacency = [0] * g.num_vertices
    for line in lines[1:]:
        u, v = map(int, line.split())
        assert u < v
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    assert adjacency == [sum(1 << (v ^ s) for s in g.steps) for v in range(g.num_vertices)]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", [3, 5, 7])
def test_export_edges_equals_the_neighbor_loop(n, m):
    g = build_graph(FamilyParams(n, m), GF2m(m))
    fast, slow = io.StringIO(), io.StringIO()
    export_edges(g, fast)
    export_edges_by_neighbors(g, slow)
    assert fast.getvalue() == slow.getvalue()
