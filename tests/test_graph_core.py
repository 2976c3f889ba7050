"""Graph container and neighborhood helpers."""

from __future__ import annotations

import random

import pytest

from burling import Graph, components, is_triangle_free, neighborhood, nesting_order
from burling.errors import InputError


def _p4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(-1, [])
    # bool is an int subclass, so it is refused by name
    with pytest.raises(InputError, match="vertex count"):
        Graph(True)
    for edge in ((False, True), (0, True), (False, 1)):
        with pytest.raises(InputError, match="endpoints must be integers"):
            Graph(3, [edge])


def test_adjacency_is_symmetric():
    g = Graph(3, [(0, 2)])
    assert 2 in g.adj[0] and 0 in g.adj[2]
    assert g.adj[1] == frozenset()


def test_neighborhood_open_and_closed():
    g = _p4()
    assert neighborhood(g, [1, 2]) == (0, 3)
    assert neighborhood(g, [0]) == (1,)
    with pytest.raises(InputError):
        neighborhood(g, [7])


def test_components_order_and_contents():
    g = Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)])
    assert components(g, range(6)) == [(0, 1, 2, 3), (4, 5)]
    # removing 1 splits the first chain
    assert components(g, [0, 2, 3, 4, 5]) == [(0,), (2, 3), (4, 5)]
    assert components(g, []) == []


def test_triangle_detection():
    assert is_triangle_free(_p4())
    assert not is_triangle_free(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert is_triangle_free(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))


def test_homogeneous_sets():
    # N({0}) = {1, 4} is a proper subset of N({2, 5}) = {1, 3, 4}, so the
    # family is nested exactly when each of 2 and 5 sees all of {1, 4} or none.
    edges = [(0, 1), (0, 4), (2, 1), (2, 4), (2, 3), (5, 3)]
    assert nesting_order(Graph(6, edges), [[0], [2, 5]]) == frozenset({(0, 1)})
    # 5 also sees 1 but not 4
    assert nesting_order(Graph(6, edges + [(5, 1)]), [[0], [2, 5]]) is None


def test_nesting_order_disjoint_neighborhoods():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    assert nesting_order(g, [[1], [3], [5]]) == frozenset()


def test_nesting_order_subset_direction():
    # both leaves of a star see {center}; N({1}) = N({2}) = {0}
    g = Graph(3, [(0, 1), (0, 2)])
    order = nesting_order(g, [[1], [2]])
    assert order == frozenset({(0, 1)})  # equal neighborhoods fall back to index


def test_nesting_order_rejects_entangled_pair():
    g = _p4()
    # N({0}) = {1}, N({3}) = {2}: disjoint, fine
    assert nesting_order(g, [[0], [3]]) == frozenset()
    # C5: N({0}) = {1,4} and N({2}) = {1,3} share vertex 1 but neither
    # contains the other
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert nesting_order(c5, [[0], [2]]) is None


def test_nesting_order_overlap_rejected():
    g = _p4()
    with pytest.raises(InputError):
        nesting_order(g, [[0, 1], [1, 2]])


def test_bools_are_not_vertices():
    # bool is an int subclass; as a vertex it would stand for 0 or 1
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="vertex True"):
        components(g, [True, 2])
    with pytest.raises(InputError, match="vertex True"):
        neighborhood(g, [True])
    with pytest.raises(InputError, match="vertex False"):
        nesting_order(g, [[False], [2]])


def _set_nesting_order(g, family):
    """nesting_order as it was written on frozensets, kept as the reference
    for the mask version: N(C) as a set, homogeneity vertex by vertex, ties
    by (neighborhood size, index)."""

    def homogeneous(s_prime, s):
        return all(not (s_prime & g.adj[x]) or s_prime & g.adj[x] == s_prime for x in s)

    sets = [frozenset(c) for c in family]
    nbs = [frozenset().union(*(g.adj[v] for v in c)) - c for c in sets]
    order = set()
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not (nbs[i] & nbs[j]):
                continue
            fwd = nbs[i] <= nbs[j] and homogeneous(nbs[i], sets[j])
            bwd = nbs[j] <= nbs[i] and homogeneous(nbs[j], sets[i])
            if not fwd and not bwd:
                return None
            if fwd and bwd:
                order.add((i, j) if (len(nbs[i]), i) < (len(nbs[j]), j) else (j, i))
            else:
                order.add((i, j) if fwd else (j, i))
    return frozenset(order)


def _triangle_free(n, tries, rng):
    adj = [set() for _ in range(n)]
    edges = []
    for _ in range(tries):
        u, v = rng.sample(range(n), 2)
        if v not in adj[u] and not adj[u] & adj[v]:
            adj[u].add(v)
            adj[v].add(u)
            edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def test_nesting_order_matches_the_set_version():
    # families: the components of G - N[v], as the recognizer meets them,
    # in both orders
    rng = random.Random(20)
    nested = rejected = ties = 0
    for _ in range(150):
        g = _triangle_free(rng.randrange(4, 16), rng.randrange(4, 40), rng)
        for v in range(g.n):
            family = components(g, set(range(g.n)) - set(neighborhood(g, [v])) - {v})
            for fam in (family, family[::-1]):
                expected = _set_nesting_order(g, fam)
                assert nesting_order(g, fam) == expected
            nbs = [neighborhood(g, c) for c in family]
            nested += expected is not None
            rejected += expected is None
            ties += expected is not None and any(
                a == b and a for i, a in enumerate(nbs) for b in nbs[i + 1 :]
            )
    assert min(nested, rejected, ties) > 20, (nested, rejected, ties)
