"""Graph container and neighborhood helpers."""

from __future__ import annotations

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
