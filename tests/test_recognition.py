"""Recognition: unit traces, witness soundness, determinism, accounting."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from burling import (
    BurlingSet,
    GeneratorConfig,
    Graph,
    InputError,
    components,
    gen_burling,
    induced_graph,
    is_triangle_free,
    nesting_order,
    recognize,
    recognize_with_stats,
    verify_axioms,
)
from burling import graph, recognition
from burling.recognition import subproblem_structure

REJECT_POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reject_pool.json").read_text()
)["graphs"]


def _sound(g, b):
    return (
        b is not None
        and verify_axioms(b).ok
        and induced_graph(b).adj == g.adj
    )


def test_triangle_rejected():
    assert recognize(Graph(3, [(0, 1), (0, 2), (1, 2)])) is None


def test_empty_graph_rejected():
    assert recognize(Graph(0, [])) is None


def test_edgeless_graph():
    b = recognize(Graph(4, []))
    assert b == BurlingSet(range(4))


def test_p4_pinned_witness():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = recognize(g)
    assert _sound(g, b)
    # deterministic trace: a path has an empty 2-core.  Peeling starts at
    # 3, the last of the ends 0 and 3, and walks to 0, which has no
    # neighbor left and becomes the root; attached back, each vertex
    # crosses out of the neighbor it was peeled from
    assert b.prec == frozenset()
    assert b.adj == frozenset({(1, 0), (2, 1), (3, 2)})


def test_fig3_graph_accepted():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 5)])
    assert _sound(g, recognize(g))


def test_stars_and_cycles():
    for g in (
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
        Graph(7, [(i, i + 1) for i in range(6)] + [(0, 6)]),
    ):
        assert _sound(g, recognize(g))


def test_disconnected_graph():
    g = Graph(5, [(0, 1), (2, 3)])
    assert _sound(g, recognize(g))


def test_petersen_rejected():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)]
    )
    g = Graph(10, [(min(u, v), max(u, v)) for u, v in edges])
    assert recognize(g) is None


def test_groetzsch_rejected():
    edges = set()
    for i in range(5):
        edges.add((min(i, (i + 1) % 5), max(i, (i + 1) % 5)))
        edges.add((i, 5 + (i + 1) % 5))
        edges.add((i, 5 + (i - 1) % 5))
        edges.add((5 + i, 10))
    assert recognize(Graph(11, sorted(edges))) is None


def test_rooted_star_leaf():
    # center 0 with leaves 1, 2; rooted at the center around one leaf
    g = Graph(3, [(0, 1), (0, 2)])
    sol = subproblem_structure(g, 0, frozenset({1}))
    assert sol is not None
    assert sol.elements == frozenset({0, 1})
    assert sol.prec == frozenset()
    assert sol.adj == frozenset({(1, 0)})


def test_rooted_path_tail_nests_inside():
    # path 0-1-2-3 rooted at 1 around {2, 3}: component {3} qualifies both
    # as nested-inside and as hanging-outward, and the tie prefers nesting
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sol = subproblem_structure(g, 1, frozenset({2, 3}))
    assert sol is not None
    assert sol.elements == frozenset({1, 2, 3})
    assert sol.prec == frozenset({(3, 1)})
    assert sol.adj == frozenset({(2, 1), (2, 3)})


def test_rooted_inner_component_preferred():
    # 0-1-2 path rooted at 0 around {1, 2}: component {2} fits both ways
    # and the tie goes to nesting inside
    g = Graph(3, [(0, 1), (1, 2)])
    sol = subproblem_structure(g, 0, frozenset({1, 2}))
    assert sol is not None
    assert sol.prec == frozenset({(2, 0)})
    assert sol.adj == frozenset({(1, 0), (1, 2)})


def test_unrooted_singleton():
    g = Graph(1, [])
    assert subproblem_structure(g, None, frozenset({0})) == BurlingSet({0})


def test_unrooted_star():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    b = subproblem_structure(g, None, frozenset(range(4)))
    assert b is not None
    assert verify_axioms(b).ok
    assert induced_graph(b).adj == g.adj


_P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
_C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.mark.parametrize(
    "g, root, s, match",
    [
        (_P4, None, [], "non-empty connected"),
        (Graph(4, [(0, 1), (2, 3)]), None, [1, 2], "non-empty connected"),  # two components
        (_P4, None, [0, 2], "non-empty connected"),  # one component, s not connected
        (_P4, None, [1, 7], "out of range"),
        (_P4, 1, [1, 2], "not a neighbor"),  # the root inside s
        (_P4, 0, [2, 3], "not a neighbor"),  # the root away from s
        (_P4, 9, [2, 3], "not a neighbor"),
        (_C4, True, [2], "not a neighbor"),  # equal to 1, a neighbor, but not an int
        (_C4, 1.0, [2], "not a neighbor"),
    ],
)
def test_subproblem_structure_rejects_malformed_arguments(g, root, s, match):
    with pytest.raises(InputError, match=match):
        subproblem_structure(g, root, s)


def test_small_and_generated_graphs_are_sound():
    graphs = [Graph(4, edges) for edges in ([(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)], [])]
    # n = 30 graphs with 126 to 637 subproblems, 40 to 50 of them solved
    for seed, probe_bias, join_mix in ((0, 0.5, 0.5), (2, 0.8, 0.2), (4, 0.8, 0.2), (10, 0.5, 0.5)):
        b = gen_burling(
            GeneratorConfig(seed=seed, target_size=30, probe_bias=probe_bias, join_mix=join_mix)
        )
        graphs.append(induced_graph(b))
    for g in graphs:
        assert _sound(g, recognize(g))


_C6 = Graph(6, [(i, i + 1) for i in range(5)] + [(0, 5)])


def test_soundness_check_catches_a_broken_plan(monkeypatch):
    # an unrooted plan that forgets its components stands for a set that
    # lacks their edges, and the witness check sees it; a cycle has no
    # vertex to peel, so the whole graph goes through the dynamic program
    assert _sound(_C6, recognize(_C6))
    solve = recognition._Recognizer._unrooted

    def forgetful(self, s):
        plan = yield from solve(self, s)
        return plan and (plan[0], (), plan[-1])

    monkeypatch.setattr(recognition._Recognizer, "_unrooted", forgetful)
    assert not _sound(_C6, recognize(_C6))


def _whole_graph_verdict(g):
    """Whether the dynamic program solves every component of g itself,
    with nothing peeled: the verdict recognize gave before it peeled."""
    return (
        g.n > 0
        and is_triangle_free(g)
        and all(subproblem_structure(g, None, c) is not None for c in components(g, range(g.n)))
    )


# (vertices, probe_bias, join_mix): the benchmark's accepting workload
_ACCEPT_SHAPES = (
    (24, 0.8, 0.2), (32, 0.5, 0.5), (32, 0.8, 0.2),
    (40, 0.5, 0.5), (40, 0.8, 0.2), (48, 0.5, 0.5),
)


def _accept_graphs():
    """120 generated Burling graphs, cycling through the accepting
    workload's shapes."""
    graphs = []
    for seed in range(120):
        n, probe_bias, join_mix = _ACCEPT_SHAPES[seed % len(_ACCEPT_SHAPES)]
        b = gen_burling(
            GeneratorConfig(seed=seed, target_size=n, probe_bias=probe_bias, join_mix=join_mix)
        )
        graphs.append(induced_graph(b))
    return graphs


def _reject_graphs():
    return [Graph(n, [tuple(e) for e in edges]) for n, edges, _ in REJECT_POOL]


def test_peeling_keeps_the_whole_graph_verdict():
    # A core solved in a graph that still holds the peeled vertices
    # rejected 2 of the 120 generated graphs: they enter N(C) of its
    # nesting-order checks.
    graphs = _accept_graphs() + _reject_graphs()
    verdicts = [(recognize(g) is not None, _whole_graph_verdict(g)) for g in graphs]
    assert verdicts[:120] == [(True, True)] * 120
    assert verdicts[120:] == [(False, False)] * len(REJECT_POOL)


def test_recognize_builds_no_graph_and_no_public_nesting_order(monkeypatch):
    # The recognizer's masks are its one copy of the core, and it nests
    # inner parts by the N[S] their plans keep, not by the checked public
    # nesting_order.
    graphs = _accept_graphs() + _reject_graphs()
    calls = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        calls.append("Graph")
        init(self, *args, **kwargs)

    def counting_nesting_order(*args):
        calls.append("nesting_order")
        return nesting_order(*args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(graph, "nesting_order", counting_nesting_order)
    monkeypatch.setattr(recognition, "nesting_order", counting_nesting_order, raising=False)
    verdicts = [recognize(g) is not None for g in graphs]
    assert verdicts == [True] * 120 + [False] * len(REJECT_POOL)
    assert calls == []


def _components(adj, s):
    """The components of the graph on s with adjacency masks adj, ordered
    by smallest vertex, each with its vertices' neighborhoods' union."""
    while s:
        comp = frontier = s & -s
        s ^= comp
        around = 0
        while frontier:
            step = 0
            for v in recognition._members(frontier):
                step |= adj[v]
            around |= step
            frontier = step & s
            s ^= frontier
            comp |= frontier
        yield comp, around


class _Recursive(recognition._Recognizer):
    """The dynamic program with no shape checks: every rooted subproblem
    demands its children until one fails, and no child is checked before
    it is demanded.  Its inner parts are nested by the public
    nesting_order on core, the graph of the component's own edges."""

    def __init__(self, core, names):
        super().__init__(core, names)
        self.core = core

    def _refuted(self, key):
        self.shapes[key] = None  # no shape: _rooted derives its own
        return False

    def _rooted(self, r, s, shape):
        adj, bit = self.adj, self.bit
        nr = adj[r]
        inner = []
        outer = []  # (component, q)
        around_s = self._around(s & nr)
        for c, around in _components(adj, s & ~nr):
            around_s |= around
            nc = around & ~c
            if not nc & ~nr and (yield None, c) is not None:
                inner.append(c)
                continue
            link = nc & nr
            if link and not link & (link - 1) and link & s:
                q = link.bit_length() - 1
                if (yield q, c) is not None:
                    outer.append((c, q))
                    continue
            return None
        nclosed = s | around_s
        inner_zone = sum(inner) | bit[r]
        pendant = []
        for p in recognition._members(nclosed & ~s & ~bit[r]):
            t = adj[p] & nclosed
            if not t & ~inner_zone:
                continue
            if not t & (t - 1) and t & nr & s:
                pendant.append((p, t.bit_length() - 1))
                continue
            if not recognition._inside_one(t, [c | bit[q] for c, q in outer]):
                return None
        name = self.names
        order = nesting_order(self.core, [[name[v] for v in recognition._members(c)] for c in inner])
        if order is None:
            return None
        return tuple(inner), tuple(outer), tuple(pendant), order, nclosed


def test_shape_refutations_hold_under_the_recursive_program(monkeypatch):
    # Every subproblem the shape checks refuted, and every other one the
    # run memoized, gets the same plan from the program without them: on
    # these graphs 46 698 plans, 45 081 of them failed, which that program
    # reaches through 49 666 subproblems.
    made = []

    class Recording(recognition._Recognizer):
        def __init__(self, g, names):
            super().__init__(g, names)
            made.append((self, g))

    monkeypatch.setattr(recognition, "_Recognizer", Recording)
    for g in _accept_graphs() + _reject_graphs():
        recognize(g)
    checked = explored = 0
    for rec, g in made:
        inside = set(rec.names)
        core = Graph(g.n, [e for e in g.edges if inside.issuperset(e)])
        full = _Recursive(core, rec.names)
        for key, plan in rec.plans.items():
            assert full.solve(key) == plan
        checked += len(rec.plans)
        explored += len(full.plans)
    assert checked < explored


def test_each_shape_is_checked_once(monkeypatch):
    # A shape that passes is kept until its subproblem is demanded, also
    # when the root that checked it is abandoned first.  Recomputing those
    # would take 2 277 shape checks on the accepted graphs and 41 314 on the
    # rejected ones, against 2 237 and 41 135.
    made, calls = [], {}
    shape = recognition._Recognizer._shape

    class Recording(recognition._Recognizer):
        def __init__(self, g, names):
            super().__init__(g, names)
            made.append(self)

        def _shape(self, r, s):
            calls[self, r, s] = calls.get((self, r, s), 0) + 1
            return shape(self, r, s)

    monkeypatch.setattr(recognition, "_Recognizer", Recording)
    for g in _accept_graphs() + _reject_graphs():
        recognize(g)
    assert len(calls) == 2_237 + 41_135
    assert sum(calls.values()) == len(calls)
    assert all(rec.plans.keys().isdisjoint(rec.shapes) for rec in made)


def test_subproblem_count_bound():
    for seed in range(10):
        b = gen_burling(GeneratorConfig(seed=seed, target_size=30))
        g = induced_graph(b)
        w, stats = recognize_with_stats(g)
        assert w is not None
        assert stats.subproblem_count <= (g.n + 1) ** 2
        assert stats.subproblem_count == stats.unrooted_count + stats.rooted_count


def test_recognize_is_deterministic():
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 5)])
    assert recognize(g) == recognize(g)


def test_hereditary_on_samples():
    # accepted graphs stay accepted on random induced subgraphs
    rnd = random.Random(7)
    for seed in (3, 11, 19):
        b = gen_burling(GeneratorConfig(seed=seed, target_size=25))
        g = induced_graph(b)
        assert recognize(g) is not None
        verts = list(range(g.n))
        for _ in range(20):
            keep = sorted(rnd.sample(verts, rnd.randint(1, g.n)))
            pos = {v: i for i, v in enumerate(keep)}
            sub = Graph(
                len(keep),
                [
                    (pos[u], pos[v])
                    for u in keep
                    for v in g.adj[u]
                    if v in pos and u < v
                ],
            )
            assert recognize(sub) is not None


_BUDGET_CHILD = """
from burling import GeneratorConfig, Graph, gen_burling, induced_graph, recognize_with_stats
w, stats = recognize_with_stats({graph})
print(w is not None, stats.subproblem_count, peak_kib())
"""


def _recognize_in_child(run_child, graph: str):
    """(accepted, subproblems, peak resident KiB, seconds) of recognizing,
    in a child process, the graph that the expression graph builds."""
    (accepted, count, peak_kib), elapsed = run_child(_BUDGET_CHILD.format(graph=graph))
    return accepted == "True", int(count), int(peak_kib), elapsed


def test_long_path_within_memory_and_time_budget(run_child):
    # A path is a tree, so a Burling graph with an empty 2-core: it is
    # peeled and attached back without the dynamic program.  Given to the
    # dynamic program whole, 2000 vertices took 9.0 s and 286 MB.
    accepted, _, peak_kib, elapsed = _recognize_in_child(
        run_child, "Graph(2000, [(i, i + 1) for i in range(1999)])"
    )
    assert accepted
    assert peak_kib < 100 * 1024
    assert elapsed < 10.0


def test_long_cycle_within_memory_and_time_budget(run_child):
    # A cycle has nothing to peel, so the dynamic program gets it whole:
    # the longest chain of nested subproblems for its size.
    accepted, _, peak_kib, elapsed = _recognize_in_child(
        run_child, "Graph(2000, [(i, i + 1) for i in range(1999)] + [(0, 1999)])"
    )
    assert accepted
    assert peak_kib < 100 * 1024
    assert elapsed < 10.0


def test_generated_graph_within_memory_and_time_budget(run_child):
    # The generator gives enclosing elements high ids.  Trying roots in
    # ascending vertex order took 15.6 s on this graph; by degree, 2.1–2.5 s.
    accepted, _, peak_kib, elapsed = _recognize_in_child(
        run_child, "induced_graph(gen_burling(GeneratorConfig(seed=1, target_size=400)))"
    )
    assert accepted
    assert peak_kib < 150 * 1024
    assert elapsed < 8.0


@pytest.mark.parametrize("seed", [1, 5, 6])
def test_relabelling_changes_the_work_less_than_threefold(seed):
    # Trying roots in ascending vertex order, seed 1 took 99 144
    # subproblems as generated and 394 with its labels reversed.
    g = induced_graph(gen_burling(GeneratorConfig(seed=seed, target_size=400)))
    reversed_g = Graph(g.n, [(g.n - 1 - v, g.n - 1 - u) for u, v in g.edges])
    counts = [recognize_with_stats(h)[1].subproblem_count for h in (g, reversed_g)]
    assert max(counts) < 3 * min(counts)


def test_thousand_vertex_graph_within_work_memory_and_time_budget(run_child):
    # 52 245 subproblems and 6.1 s before rooted subproblems were refuted
    # by their shape; 22 366 and about 3 s after, generation included.
    accepted, count, peak_kib, elapsed = _recognize_in_child(
        run_child, "induced_graph(gen_burling(GeneratorConfig(seed=5, target_size=1000)))"
    )
    assert accepted
    assert count <= 30_000
    assert peak_kib < 200 * 1024
    assert elapsed < 5.0
