"""Seeded metamorphic tests on generated Burling sets and on graphs.

Renaming the elements of a Burling set by a random injection changes the
sorted order every tie-break in the library follows, but not the structure:
the axioms still hold, the optimum weight is the same, and frames built from
the renamed set give back the renamed set.  Restricting to a subset keeps
the axioms (they are universal statements about the elements they name) and
can only lower the optimum.

For graphs, relabelling the vertices does not change whether a graph is a
Burling graph, and Burling graphs are closed under induced subgraphs.
Hanging a vertex or a path off a graph does not change whether it is one
either, in either direction.
Recognition treats the components of a graph one by one, so on a disjoint
union it returns the union of the parts' witnesses and adds up their work,
up to the first part that is rejected.  The
non-Burling graphs come from the benchmark's reject pool; its near-misses
are generated Burling graphs plus one recorded extra edge.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from burling import (
    BurlingSet,
    GeneratorConfig,
    Graph,
    build_frames,
    extract_burling,
    gen_burling,
    induced_graph,
    recognize,
    recognize_with_stats,
    restrict,
    solve_indep,
    verify_axioms,
)

REJECT_POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reject_pool.json").read_text()
)["graphs"]


def _relabel(b, name):
    return BurlingSet(
        (name[x] for x in b.elements),
        ((name[a], name[c]) for a, c in b.prec),
        ((name[a], name[c]) for a, c in b.adj),
    )


@pytest.mark.parametrize("seed", range(30))
def test_relabelling_and_restriction(seed):
    rng = random.Random(seed)
    b = gen_burling(
        GeneratorConfig(
            seed=seed,
            target_size=rng.randrange(1, 40),
            probe_bias=rng.random(),
            join_mix=rng.random(),
        )
    )
    ids = b.ordered()
    name = dict(zip(ids, rng.sample(range(10 * len(ids)), len(ids))))
    c = _relabel(b, name)
    weights = {name[x]: rng.randrange(100) for x in ids}

    assert verify_axioms(c).ok
    total = solve_indep(c, weights)[1]
    assert solve_indep(b, {x: weights[name[x]] for x in ids})[1] == total
    assert extract_burling(build_frames(c)) == c

    u = rng.sample(sorted(c.elements), rng.randrange(1, len(ids) + 1))
    r = restrict(c, u)
    assert verify_axioms(r).ok
    assert solve_indep(r, {x: weights[x] for x in u})[1] <= total


def _witnesses(g, w):
    return w is not None and verify_axioms(w).ok and induced_graph(w) == g


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])


def _generated_graph(rng, seed):
    b = gen_burling(
        GeneratorConfig(
            seed=seed,
            target_size=rng.randrange(1, 40),
            probe_bias=rng.random(),
            join_mix=rng.random(),
        )
    )
    return induced_graph(b)


@pytest.mark.parametrize("seed", range(10))
def test_graph_verdict_survives_relabelling(seed):
    rng = random.Random(seed)
    g = _generated_graph(rng, seed)
    assert _witnesses(g, recognize(g))
    h = _relabelled(g, rng)
    assert _witnesses(h, recognize(h))
    for n, edges, _ in rng.sample(REJECT_POOL, 3):
        assert recognize(_relabelled(Graph(n, [tuple(e) for e in edges]), rng)) is None


@pytest.mark.parametrize("seed", range(10))
def test_induced_subgraphs_of_burling_graphs_are_accepted(seed):
    rng = random.Random(seed)
    g = _generated_graph(rng, 1000 + seed)
    for _ in range(5):
        keep = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        pos = {v: i for i, v in enumerate(keep)}
        sub = Graph(
            len(keep),
            [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos],
        )
        assert _witnesses(sub, recognize(sub))


def test_near_misses_without_their_extra_edge_are_accepted():
    near_misses = [(n, edges, extra) for n, edges, extra in REJECT_POOL if extra is not None]
    assert near_misses
    for n, edges, extra in near_misses:
        g = Graph(n, [tuple(e) for e in edges if e != extra])
        assert len(g.edges) == len(edges) - 1
        assert _witnesses(g, recognize(g))


def _with_pendant_path(g, at, length):
    """g with a path of length new vertices hanging from its vertex at."""
    k = g.n
    edges = list(g.edges) + [(at, k)] + [(k + i, k + i + 1) for i in range(length - 1)]
    return Graph(k + length, edges)


@pytest.mark.parametrize("seed", range(10))
def test_pendant_vertices_and_paths_keep_the_verdict(seed):
    rng = random.Random(seed)
    g = _generated_graph(rng, 4000 + seed)
    n, edges, _ = rng.choice(REJECT_POOL)
    r = _relabelled(Graph(n, [tuple(e) for e in edges]), rng)
    for _ in range(4):
        length = rng.choice((1, 1, 2, 5))
        g = _with_pendant_path(g, rng.randrange(g.n), length)
        assert _witnesses(g, recognize(g))
        r = _with_pendant_path(r, rng.randrange(r.n), length)
        assert recognize(r) is None


def _disjoint_union(g1, g2):
    """g1 and g2 side by side, g2's vertices shifted by g1.n."""
    k = g1.n
    return Graph(k + g2.n, list(g1.edges) + [(u + k, v + k) for u, v in g2.edges])


def _shifted(b, k):
    return _relabel(b, {x: x + k for x in b.elements})


@pytest.mark.parametrize("seed", range(14))
def test_disjoint_union_is_recognized_part_by_part(seed):
    rng = random.Random(seed)
    g1, g2 = _generated_graph(rng, 2000 + seed), _generated_graph(rng, 3000 + seed)
    w1, s1 = recognize_with_stats(g1)
    w2, s2 = recognize_with_stats(g2)
    w, s = recognize_with_stats(_disjoint_union(g1, g2))
    assert w1 is not None and w2 is not None
    w2 = _shifted(w2, g1.n)
    assert w == BurlingSet(w1.elements | w2.elements, w1.prec | w2.prec, w1.adj | w2.adj)
    assert s.unrooted_count == s1.unrooted_count + s2.unrooted_count
    assert s.rooted_count == s1.rooted_count + s2.rooted_count

    # a rejected first part ends the run before the second part is tried
    n, edges, _ = REJECT_POOL[0]
    r = Graph(n, [tuple(e) for e in edges])
    w, s = recognize_with_stats(_disjoint_union(r, g1))
    assert w is None
    assert s == recognize_with_stats(r)[1]
