"""Maximum-weight independent set solvers, checked against brute force, a
per-cone reference, a linear path DP and a time and memory budget."""

from __future__ import annotations

import random
import re

import pytest

from burling import (
    BurlingSet,
    Graph,
    GeneratorConfig,
    brute_force_mwis,
    build_frames,
    chordal_relation,
    gen_burling,
    induced_graph,
    max_weight_independent_set,
    mwis_chordal,
    solve_indep,
    verify_axioms,
)
from burling import core, frames, io, mis
from burling.core import _chordal_forest, _topo_sort
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


@pytest.mark.parametrize(
    "b",
    [
        BurlingSet("xyz", prec=[("x", "y"), ("x", "z")]),
        BurlingSet("xyz", prec=[("x", "y"), ("x", "z")], adj=[("y", "z")]),
    ],
    ids=["targets-unrelated", "targets-related-by-adj"],
)
def test_solve_indep_rejects_prec_that_is_not_a_forest(b):
    # prec is transitive, but y and z are incomparable prec-targets of x, so
    # x is not settled and the relation index quotes the violation, also
    # where adj relates y and z.
    message = "^not a Burling set: prec-out-chain: x, y, z$"
    with pytest.raises(ContractError, match=message):
        chordal_relation(b)
    with pytest.raises(ContractError, match=message):
        solve_indep(b, _unit("xyz"))


def _pairwise_gap(order, out):
    """Reference chordality test over all target pairs: the first element
    x, in the given order, with two out-targets y < z related in neither
    direction, as (x, y, z); None if there is none."""
    for x in order:
        ts = sorted(out[x])
        for i, y in enumerate(ts):
            for z in ts[i + 1:]:
                if z not in out[y] and y not in out[z]:
                    return x, y, z
    return None


def _random_acyclic(rng, k):
    """Relation digraph with each forward pair of a random order present
    with one random probability."""
    rank = list(range(k))
    rng.shuffle(rank)
    p = rng.random()
    out = {v: set() for v in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                out[rank[i]].add(rank[j])
    return out


def _ancestors(parent, x):
    out = set()
    while parent[x] is not None:
        x = parent[x]
        out.add(x)
    return out


def test_positional_chordality_matches_pairwise():
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(4000):
        k = rng.randrange(1, 9)
        if rng.randrange(2):
            rel = _random_chordal(rng, k)
            if rel and rng.randrange(2):
                rel.discard(rng.choice(sorted(rel)))
            out = {v: set() for v in range(k)}
            for a, c in rel:
                out[a].add(c)
        else:
            out = _random_acyclic(rng, k)
        topo = _topo_sort(range(k), out)
        chordal = _pairwise_gap(range(k), out) is None
        try:
            parent = _chordal_forest(topo, out)
        except ContractError as e:
            assert not chordal
            m = re.fullmatch(r"out-targets (\d+), (\d+) of (\d+) are unrelated", str(e))
            y, z, x = map(int, m.groups())
            assert y != z and {y, z} <= out[x]
            assert z not in out[y] and y not in out[z]
        else:
            assert chordal
            # The forest the frame builder and the greedy rely on: each
            # parent is the first target in topo, every target an ancestor.
            pos = {v: i for i, v in enumerate(topo)}
            for x in range(k):
                first = min(out[x], key=pos.__getitem__, default=None)
                assert parent[x] == first
                assert out[x] <= _ancestors(parent, x)
        verdicts[chordal] += 1
    assert min(verdicts.values()) > 500


def _two_phase(peo, out, weights) -> tuple:
    """Frank's two-phase greedy over a perfect elimination order peo of a
    chordal relation given by out-maps that stay inside peo."""
    residual = {x: weights[x] for x in peo}
    marked = []
    for x in peo:
        r = residual[x]
        if r > 0:
            marked.append(x)
            for y in out[x]:
                residual[y] -= r
    chosen = set()
    for x in reversed(marked):
        if chosen.isdisjoint(out[x]):
            chosen.add(x)
    return frozenset(chosen), sum(weights[x] for x in chosen)


def _per_cone_reference(b, weights):
    """Reference solver without the cover forest: the pairwise chordality
    check, then for every cone a copy of the relation restricted to it, a
    Kahn sort and the two-phase greedy, each cone's solution expanded in
    full."""
    order = sorted(b.elements)
    out = {x: set() for x in order}
    in_prec = {x: set() for x in order}
    for x, y in b.prec:
        out[x].add(y)
        in_prec[y].add(x)
    for x, y in b.adj:
        out[x].add(y)
    topo = _topo_sort(order, out)
    assert topo is not None and _pairwise_gap(order, out) is None
    memo = {}

    def cone_solve(peo, sub):
        boosted = {x: weights[x] + memo[x][1] for x in peo}
        core, total = _two_phase(peo, sub, boosted)
        full = set(core)
        for x in core:
            full.update(memo[x][0])
        return frozenset(full), total

    for u in sorted(order, key=lambda x: len(in_prec[x])):
        cone = in_prec[u]
        sub = {x: out[x] & cone for x in cone}
        memo[u] = cone_solve(_topo_sort(cone, sub), sub)
    return cone_solve(topo, out)


@pytest.mark.parametrize("probe_bias", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("join_mix", [0.2, 0.5, 0.8])
def test_solve_indep_matches_per_cone_reference(probe_bias, join_mix):
    # Small weight ranges make ties common, where a greedy could pick
    # another set of the same weight.
    rng = random.Random(f"cones:{probe_bias}:{join_mix}")
    for seed in range(20):
        size = rng.randrange(2, 121)
        cfg = GeneratorConfig(seed, size, probe_bias=probe_bias, join_mix=join_mix)
        b = gen_burling(cfg)
        for top in (1, 4, 99):
            weights = {x: rng.randint(0, top) for x in b.ordered()}
            assert solve_indep(b, weights) == _per_cone_reference(b, weights)


def test_solve_indep_matches_per_cone_reference_on_benchmark_shape():
    # The sizes and generator settings of the benchmark's indep workload.
    rng = random.Random("cones:indep")
    for n in (16, 20, 36, 44, 52):
        for _ in range(20):
            cfg = GeneratorConfig(rng.getrandbits(63), n, probe_bias=0.3, join_mix=0.8)
            b = gen_burling(cfg)
            weights = {x: rng.randrange(100) for x in b.ordered()}
            assert solve_indep(b, weights) == _per_cone_reference(b, weights)


def _set_of_covers(cover, adj):
    """The Burling set with the given covers, x -> x's cover or None, and
    adj pairs, its prec the ancestor relation; checked to be valid."""
    prec = []
    for x in cover:
        y = cover[x]
        while y is not None:
            prec.append((x, y))
            y = cover[y]
    b = BurlingSet(cover, prec, adj)
    assert verify_axioms(b).ok
    return b


# No child of u is crossed, so u's run takes a and b alone; inside a, a2 is
# crossed by its sibling a1, and r crosses u from outside.
_UNCROSSED = _set_of_covers(
    {"r": None, "u": None, "a": "u", "b": "u", "a1": "a", "a2": "a", "b1": "b"},
    [("a1", "a2"), ("r", "u")],
)
# Under u, c1 crosses c2 and c2 crosses c3, each along a path down to the
# grandchild of its target: c1's residual changes the deductions that c2's
# subtree gets, and with them c2's residual, which c3's subtree gets.
# Inside c1 and c2 one child crosses another.
_CHAIN = _set_of_covers(
    {
        "u": None,
        **{f"c{i}": "u" for i in (1, 2, 3)},
        **{f"d{i}": f"c{i}" for i in (1, 2, 3)},
        **{f"e{i}": f"d{i}" for i in (1, 2, 3)},
        **{f"d{i}2": f"c{i}" for i in (1, 2, 3)},
        "f2": "e2", "f3": "e3",
    },
    [
        ("c1", "c2"), ("c1", "d2"), ("c1", "e2"),
        ("c2", "c3"), ("c2", "d3"), ("c2", "e3"),
        ("d1", "d12"), ("d22", "d2"),
    ],
)


@pytest.mark.parametrize("b", [_UNCROSSED, _CHAIN], ids=["uncrossed", "chain"])
def test_solve_indep_matches_per_cone_reference_on_hand_built_sets(b):
    order = b.ordered()
    zero = dict.fromkeys(order, 0)
    assert solve_indep(b, zero) == _per_cone_reference(b, zero) == (frozenset(), 0)
    # 0/1 weights leave uncrossed children of weight 0, which must delegate
    rng = random.Random(f"hand-built:{len(order)}")
    for top in (1, 3, 50):
        for _ in range(200):
            weights = {x: rng.randint(0, top) for x in order}
            assert solve_indep(b, weights) == _per_cone_reference(b, weights)


def test_uncrossed_child_of_weight_zero_keeps_its_cone():
    # a weighs nothing, so the run under u leaves it unmarked; its cone's
    # own choice, a2 over a1, must still come back.  Nested b and b1 do not
    # meet, so both are kept.
    weights = {"r": 0, "u": 0, "a": 0, "b": 1, "a1": 1, "a2": 2, "b1": 1}
    assert solve_indep(_UNCROSSED, weights) == (frozenset({"a2", "b", "b1"}), 4)
    assert solve_indep(_UNCROSSED, weights) == _per_cone_reference(_UNCROSSED, weights)


def test_solve_indep_reruns_only_crossed_subtrees(monkeypatch):
    # Each cone's run takes a child alone unless a sibling has it as an
    # adj-target, and then its whole subtree; the roots are one more level.
    runs = []
    two_phase = mis._two_phase

    def counting(xs, *rest):
        runs.append(len(xs))
        return two_phase(xs, *rest)

    monkeypatch.setattr(mis, "_two_phase", counting)
    rng = random.Random("crossed-subtrees")
    for seed in range(30):
        cfg = GeneratorConfig(seed, rng.randrange(2, 80), probe_bias=0.3, join_mix=0.8)
        b = gen_burling(cfg)
        targets = {x: {y for a, y in b.prec if a == x} for x in b.elements}
        cover = {x: max(ts, key=lambda y: len(targets[y]), default=None) for x, ts in targets.items()}
        below = {x: sum(1 for a, y in b.prec if y == x) for x in b.elements}
        crossed = {y for x, y in b.adj if cover[x] == cover[y]}
        expected = sum(1 + below[c] if c in crossed else 1 for c in b.elements)
        runs.clear()
        solve_indep(b, {x: rng.randrange(100) for x in b.elements})
        assert sum(runs) == expected
        assert len(runs) == len({cover[x] for x in b.elements})


def _kahn_largest_first(nodes, out):
    """_topo_sort of integer nodes with the largest ready node first."""
    neg = _topo_sort([-x for x in nodes], {-x: {-y for y in out[x]} for x in nodes})
    return tuple(-x for x in neg)


def test_two_phase_does_not_depend_on_the_topological_order():
    # solve_indep lays cones out in the cover forest's postorder rather
    # than in Kahn's smallest-first order; the greedy must not see it.
    rng = random.Random("two-phase-order")
    differ = 0
    for seed in range(60):
        cfg = GeneratorConfig(seed, rng.randrange(2, 60), probe_bias=0.3, join_mix=0.8)
        b = gen_burling(cfg)
        out = {x: set() for x in b.elements}
        for x, y in b.prec | b.adj:
            out[x].add(y)
        for u in [None, *b.ordered()]:
            cone = b.elements if u is None else {x for x, y in b.prec if y == u}
            if len(cone) < 2:
                continue
            sub = {x: out[x] & cone for x in cone}
            smallest = _topo_sort(sorted(cone), sub)
            largest = _kahn_largest_first(sorted(cone), sub)
            for top in (1, 5, 99):
                weights = {x: rng.randint(0, top) for x in cone}
                assert _two_phase(smallest, sub, weights) == _two_phase(largest, sub, weights)
            differ += smallest != largest
    assert differ > 300


def test_solve_indep_sorts_topologically_once(monkeypatch):
    # verify_axioms, solve_indep and build_frames share one relation
    # index: one out-map for adj, and one topological order of the
    # elements, which cones restrict and which verify_axioms, run first,
    # takes.  prec's out-map is the constructor's, which keeps only the
    # covers.  The other sorts are of the 2n horizontal symbols.
    b = gen_burling(GeneratorConfig(seed=3, target_size=60))
    fresh = BurlingSet(b.elements, b.prec, b.adj)
    maps = []
    sorts = []
    core_maps = core._maps

    def counting_maps(elements, pairs):
        maps.append(len(pairs))
        return core_maps(elements, pairs)

    def counting_sort(nodes, succ):
        sorts.append(len(nodes))
        return _topo_sort(nodes, succ)

    monkeypatch.setattr(core, "_maps", counting_maps)
    for module in (core, mis, frames):
        monkeypatch.setattr(module, "_topo_sort", counting_sort)
    assert verify_axioms(fresh).ok
    assert sorts == [60]
    solve_indep(fresh, _unit(fresh.elements))
    assert sorts == [60]
    build_frames(fresh)
    assert maps == [len(b.adj)]
    assert sorted(sorts) == [60, 120]


def test_solve_indep_reads_the_index_layout(monkeypatch):
    # The cover forest is laid out once per set, by the index (_spans), and
    # loading a file of covers does not lay it out.
    walks = []
    dfs = core._dfs

    def counting(order, up):
        walks.append(len(order))
        return dfs(order, up)

    monkeypatch.setattr(core, "_dfs", counting)
    b = gen_burling(GeneratorConfig(seed=5, target_size=50, probe_bias=0.3, join_mix=0.8))
    weights = {x: x % 7 for x in b.elements}
    answer = solve_indep(b, weights)
    assert walks == [50]
    loaded = io.load_burling_json(io.dump_burling_json(b))
    assert walks == [50]
    assert verify_axioms(loaded).ok
    named = solve_indep(loaded, {str(x): w for x, w in weights.items()})
    assert walks == [50, 50]
    assert named == (frozenset(map(str, answer[0])), answer[1])


def _path_mwis(ws):
    """Maximum total weight of an independent set of a path, by the linear
    dynamic program over its vertices in order."""
    take = skip = 0
    for w in ws:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


_SOLVE_CHILD = """
import time
from burling import GeneratorConfig, Graph, gen_burling, solve_indep
from burling.recognition import subproblem_structure
ok = True
seconds = []
for settings in ({}, {"probe_bias": 0.3, "join_mix": 0.8}):
    b = gen_burling(GeneratorConfig(seed=1, target_size=2000, **settings))
    weights = {x: x * 7919 % 100 for x in b.ordered()}
    start = time.perf_counter()
    sel, total = solve_indep(b, weights)
    seconds.append(time.perf_counter() - start)
    ok = ok and total == sum(weights[x] for x in sel)
    ok = ok and not any(a in sel and c in sel for a, c in b.adj)
    del b, sel
gen_s, crossed_s = seconds
n = 1000
w = subproblem_structure(Graph(n, [(i, i + 1) for i in range(n - 1)]), None, range(n))
start = time.perf_counter()
sel, total = solve_indep(w, {i: i * 7919 % 100 for i in range(n)})
path_s = time.perf_counter() - start
peak = peak_kib()
print(ok, gen_s, crossed_s, path_s, total, peak)
"""


def test_large_sets_within_memory_and_time_budget(run_child):
    # Two n = 2000 generated sets, the second at the indep benchmark's
    # settings, whose many sibling crossings rerun the most subtrees; and
    # the witness the dynamic program builds for a whole 1000-vertex path:
    # its prec holds n^2/4 pairs and its cones are the deepest for their
    # size.  (recognize peels a path off instead, which leaves its witness
    # without prec pairs.)  A child process runs the solves; generating the
    # sets takes most of its peak resident size.
    (ok, gen_s, crossed_s, path_s, total, peak_kib), _ = run_child(_SOLVE_CHILD)
    assert ok == "True"
    assert int(total) == _path_mwis([i * 7919 % 100 for i in range(1000)])
    assert float(gen_s) < 10.0
    assert float(crossed_s) < 0.5
    assert float(path_s) < 10.0
    assert int(peak_kib) < 200 * 1024


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
