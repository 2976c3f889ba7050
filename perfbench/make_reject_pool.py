#!/usr/bin/env python3
"""Records the graphs the recognize-reject workload serves.

    python3 perfbench/make_reject_pool.py

Builds triangle-free candidate graphs in slots, alternating two kinds:
sparse random graphs (about 1.3 n edges) and near-misses (a generated
Burling graph plus one extra edge).  From each slot it keeps the first
candidate that recognition rejects, until it has RecognizeReject.SIZE
graphs, and writes them to reject_pool.json with the verdict NOT_BURLING;
a near-miss keeps its extra edge, so that the benchmark can check that
recognition accepts the generated graph without it.
The benchmark serves these graphs and checks its answers against this
recorded verdict, so the verdict does not come from the code it measures.
Run it only to record the pool again, on a commit whose recognition is
trusted; the pool in the repository was recorded on the commit the
benchmark was added on top of.
"""

from __future__ import annotations

import json
import random

import run

run.import_library()
from burling import core, graph, recognition  # noqa: E402
import workloads  # noqa: E402

SEED = "reject-pool"
RANDOM_SIZES = (24, 28, 32)
NEAR_SHAPES = ((28, 0.8, 0.2), (32, 0.5, 0.5), (36, 0.8, 0.2))
TRIES = 6  # random candidates per slot
# An extra edge between vertices this far apart keeps the graph
# triangle-free and breaks the Burling property most often (about one
# candidate in six).  Bases with few cycles almost never do, so a base
# needs at least vertices + NEAR_CYCLES edges.
NEAR_DISTANCES = (4, 5)
NEAR_CYCLES = 4
NEAR_TRIES = 24


def distances(g, source) -> dict:
    """Breadth-first distances from source to every vertex it reaches."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def random_slot(i, rng) -> list:
    """(graph, None) candidates."""
    n = RANDOM_SIZES[(i // 2) % len(RANDOM_SIZES)]
    return [(graph.Graph(n, workloads.random_triangle_free(n, round(1.3 * n), rng)), None)
            for _ in range(TRIES)]


def near_slot(i, rng) -> list:
    """(graph, extra edge) candidates, all from one generated base."""
    n, pb, jm = NEAR_SHAPES[(i // 2) % len(NEAR_SHAPES)]
    g = core.induced_graph(workloads.generated(rng.getrandbits(63), n, pb, jm))
    while len(g.edges) < n + NEAR_CYCLES:
        g = core.induced_graph(workloads.generated(rng.getrandbits(63), n, pb, jm))
    h = graph.Graph(n, workloads.relabeled_edges(g, rng))
    extra = [(u, v) for u in range(n) for v, d in distances(h, u).items()
             if u < v and d in NEAR_DISTANCES]
    rng.shuffle(extra)
    return [(graph.Graph(n, sorted(h.edges) + [e]), e) for e in extra[:NEAR_TRIES]]


def first_rejected(cands):
    """The first candidate recognition rejects.  Any witness it returns on
    the way must be a valid Burling set of that very graph."""
    for g, extra in cands:
        if not graph.is_triangle_free(g):
            raise AssertionError("a candidate has a triangle")
        w = recognition.recognize(g)
        if w is None:
            return g, extra
        if not core.verify_axioms(w).ok or core.induced_graph(w) != g:
            raise AssertionError(f"recognize returned a wrong witness for {sorted(g.edges)}")
    return None


def main() -> int:
    rng = random.Random(SEED)
    size = workloads.RecognizeReject.SIZE
    graphs = []
    i = 0
    while len(graphs) < size:
        found = first_rejected((random_slot if i % 2 == 0 else near_slot)(i, rng))
        i += 1
        if found is not None:
            g, extra = found
            graphs.append([g.n, sorted(g.edges), extra])
    pool = {"verdict": workloads.NOT_BURLING, "graphs": graphs}
    path = workloads.RecognizeReject.POOL
    path.write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    print(f"{len(graphs)} graphs from {i} slots written to {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
