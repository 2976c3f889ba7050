"""Maximum-weight independent set solvers."""

from __future__ import annotations

import random

import pytest

from burling import (
    BurlingSet,
    Graph,
    GeneratorConfig,
    brute_force_mwis,
    chordal_relation,
    gen_burling,
    induced_graph,
    max_weight_independent_set,
    mwis_chordal,
    solve_indep,
)
from burling.errors import ContractError, InputError


def fig3_set():
    return BurlingSet(
        "abcdef",
        prec=[("e", "c")],
        adj=[("b", "a"), ("c", "a"), ("d", "a"), ("f", "d")],
    )


def _unit(elements):
    return {x: 1 for x in elements}


def _independent(sel, rel):
    return not any(a in sel and c in sel for a, c in rel)


def test_weight_validation():
    b = BurlingSet("x")
    with pytest.raises(InputError):
        solve_indep(b, {})
    with pytest.raises(InputError):
        solve_indep(b, {"x": -1})
    with pytest.raises(InputError):
        solve_indep(b, {"x": 1.5})
    with pytest.raises(InputError):
        solve_indep(b, {"x": True})


def test_chordal_relation_merges_both_parts():
    b = fig3_set()
    assert chordal_relation(b) == frozenset(b.prec | b.adj)


def test_mwis_chordal_empty():
    assert mwis_chordal([], [], {}) == (frozenset(), 0)


def test_mwis_chordal_chain():
    sel, w = mwis_chordal("abc", [("a", "b"), ("b", "c")], _unit("abc"))
    assert (sel, w) == (frozenset("ac"), 2)


def test_mwis_chordal_fig3_relation():
    b = fig3_set()
    rel = chordal_relation(b)
    order = b.ordered()
    idx = {x: i for i, x in enumerate(order)}
    g = Graph(6, sorted((min(idx[a], idx[c]), max(idx[a], idx[c])) for a, c in rel))

    sel, w = mwis_chordal(order, rel, _unit(order))
    assert w == 3
    assert _independent(sel, rel)
    assert w == brute_force_mwis(g, _unit(range(6)))[1]

    heavy = _unit(order)
    heavy["a"] = 10
    sel, w = mwis_chordal(order, rel, heavy)
    assert (sel, w) == (frozenset("aef"), 12)


def test_mwis_chordal_rejects_stray_pair():
    with pytest.raises(InputError):
        mwis_chordal("ab", [("a", "x")], {"a": 1, "b": 1})


def test_mwis_chordal_rejects_non_chordal():
    with pytest.raises(ContractError):
        mwis_chordal("abc", [("a", "b"), ("a", "c")], _unit("abc"))


def test_mwis_chordal_rejects_cycle():
    with pytest.raises(ContractError):
        mwis_chordal("ab", [("a", "b"), ("b", "a")], {"a": 1, "b": 1})


def _random_chordal(rng, k):
    """Relation digraph whose out-neighbourhoods are pairwise related."""
    out = {v: set() for v in range(k)}
    rel = set()
    for v in range(1, k):
        if rng.randrange(4) == 0:
            continue
        u = rng.randrange(v)
        targets = {u} | {t for t in out[u] if rng.randrange(2)}
        for t in targets:
            rel.add((v, t))
        out[v] = targets
    return rel


def test_mwis_chordal_matches_brute_force():
    rng = random.Random(41)
    for _ in range(80):
        k = rng.randrange(1, 11)
        rel = _random_chordal(rng, k)
        weights = {v: rng.randrange(0, 101) for v in range(k)}
        sel, w = mwis_chordal(range(k), rel, weights)
        assert _independent(sel, rel)
        assert sum(weights[v] for v in sel) == w
        g = Graph(k, sorted((min(a, c), max(a, c)) for a, c in rel))
        assert w == brute_force_mwis(g, weights)[1]


def test_solve_indep_singleton():
    assert solve_indep(BurlingSet("x"), {"x": 7}) == (frozenset("x"), 7)


def test_solve_indep_fig3_unit():
    b = fig3_set()
    assert solve_indep(b, _unit("abcdef")) == (frozenset("bcef"), 4)


def test_solve_indep_fig3_weighted():
    b = fig3_set()
    weights = _unit("abcdef")
    weights["a"] = 10
    assert solve_indep(b, weights) == (frozenset("aef"), 12)


def test_solve_indep_rejects_broken_cones():
    # prec is not transitive, so the cone of z is examined before its parts
    b = BurlingSet("abyz", prec=[("y", "z"), ("a", "y"), ("b", "y")])
    with pytest.raises(ContractError):
        solve_indep(b, _unit("abyz"))


@pytest.mark.parametrize(
    "b",
    [
        BurlingSet("ab", prec=[("a", "b")], adj=[("b", "a")]),  # cycle
        BurlingSet("xyz", adj=[("x", "y"), ("x", "z")]),  # y, z unrelated
    ],
    ids=["cycle", "non-chordal"],
)
def test_broken_relation_is_contract_error(b):
    with pytest.raises(ContractError):
        chordal_relation(b)
    with pytest.raises(ContractError):
        solve_indep(b, _unit(b.elements))


def test_solve_indep_matches_brute_force():
    rng = random.Random(97)
    for seed in range(40):
        size = rng.randrange(2, 15)
        b = gen_burling(GeneratorConfig(seed=seed, target_size=size))
        order = b.ordered()
        weights = {x: rng.randrange(0, 101) for x in order}
        sel, w = solve_indep(b, weights)
        assert _independent(sel, b.adj)
        assert sum(weights[x] for x in sel) == w
        idx = {x: i for i, x in enumerate(order)}
        g = induced_graph(b)
        assert w == brute_force_mwis(g, {idx[x]: weights[x] for x in order})[1]


def test_graph_level_weight_keys():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        max_weight_independent_set(g, {0: 1, 1: 1})
    with pytest.raises(InputError):
        max_weight_independent_set(g, {0: 1, 1: 1, 3: 1})


def test_graph_level_triangle_is_none():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert max_weight_independent_set(g, _unit(range(3))) is None


def test_graph_level_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sel, w = max_weight_independent_set(g, _unit(range(4)))
    assert w == 2
    assert not any(v in sel for u in sel for v in g.adj[u])


def test_graph_level_fig3_weighted():
    b = fig3_set()
    g = induced_graph(b)
    weights = {i: (i + 1) * 3 for i in range(g.n)}
    sel, w = max_weight_independent_set(g, weights)
    assert w == brute_force_mwis(g, weights)[1]
    assert sum(weights[v] for v in sel) == w
