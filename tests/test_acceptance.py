"""End-to-end acceptance checks.

Each test covers one acceptance criterion and ends with a single
"criterion N: PASS" line; a failing criterion shows up as a failed test.
Time budgets are wall-clock seconds measured from test entry.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from functools import lru_cache

from burling import (
    BurlingSet,
    Frame,
    FrameFamily,
    GeneratorConfig,
    Graph,
    brute_force_mwis,
    build_frames,
    components,
    exhaustive_recognize,
    extract_burling,
    gen_burling,
    horizontal_constraints,
    induced_graph,
    is_triangle_free,
    mwis_chordal,
    recognize,
    recognize_with_stats,
    solve_indep,
    verify_axioms,
    verify_strict,
)


def _passline(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


def _sound_witness(g: Graph, b: BurlingSet) -> bool:
    return verify_axioms(b).ok and induced_graph(b).adj == g.adj


@lru_cache(maxsize=None)
def _generated_corpus():
    """1000 generated Burling sets, sizes 1..60, mixed generator settings."""
    sets = []
    for seed in range(1000):
        cfg = GeneratorConfig(
            seed=seed,
            target_size=1 + seed % 60,
            probe_bias=(seed % 11) / 10,
            join_mix=(seed % 7) / 6,
        )
        sets.append(gen_burling(cfg))
    return sets


@lru_cache(maxsize=None)
def _small_graph_corpus():
    """All connected triangle-free graphs on up to 5 vertices, plus 200
    seeded triangle-free graphs on 6 vertices."""
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(n, edges)
            if len(components(g, range(n))) == 1 and is_triangle_free(g):
                graphs.append(g)
    assert len(graphs) == 231
    rng = random.Random(202)
    pairs = list(itertools.combinations(range(6), 2))
    found = 0
    while found < 200:
        edges = [p for p in pairs if rng.random() < 0.35]
        g = Graph(6, edges)
        if is_triangle_free(g):
            graphs.append(g)
            found += 1
    return graphs


def test_criterion_1_triangles_rejected():
    start = time.perf_counter()
    assert recognize(Graph(3, [(0, 1), (0, 2), (1, 2)])) is None
    rng = random.Random(101)
    count = 0
    while count < 200:
        n = rng.randrange(3, 9)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p in pairs if rng.random() < 0.4]
        g = Graph(n, edges)
        if is_triangle_free(g):
            continue
        assert recognize(g) is None
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passline(1, f"201 triangle-containing graphs rejected in {elapsed:.2f}s")


def test_criterion_2_matches_exhaustive_oracle():
    start = time.perf_counter()
    agreed = 0
    for g in _small_graph_corpus():
        fast = recognize(g)
        slow = exhaustive_recognize(g)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert _sound_witness(g, fast)
            assert _sound_witness(g, slow)
        agreed += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _passline(2, f"fast and exhaustive recognition agree on {agreed} graphs in {elapsed:.1f}s")


def test_criterion_3_witnesses_are_sound():
    start = time.perf_counter()
    checked = 0
    for g in _small_graph_corpus():
        b = recognize(g)
        if b is not None:
            assert _sound_witness(g, b)
            checked += 1
    for b in _generated_corpus():
        g = induced_graph(b)
        w = recognize(g)
        assert w is not None
        assert _sound_witness(g, w)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passline(3, f"{checked} accepted graphs produced verified witnesses in {elapsed:.1f}s")


def test_criterion_4_frame_round_trip():
    start = time.perf_counter()
    for b in _generated_corpus():
        fam = build_frames(b)
        assert verify_strict(fam).ok
        assert extract_burling(fam) == b
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passline(4, f"1000 frame families verified and re-extracted in {elapsed:.1f}s")


def test_criterion_5_weighted_mis_matches_brute_force():
    start = time.perf_counter()
    fig3 = BurlingSet(
        "abcdef",
        prec=[("e", "c")],
        adj=[("b", "a"), ("c", "a"), ("d", "a"), ("f", "d")],
    )
    assert solve_indep(fig3, {x: 1 for x in "abcdef"})[1] == 4
    rng = random.Random(555)
    for seed in range(500):
        b = gen_burling(GeneratorConfig(seed=2000 + seed, target_size=1 + seed % 18))
        order = b.ordered()
        weights = {x: rng.randrange(0, 101) for x in order}
        sel, w = solve_indep(b, weights)
        assert sum(weights[x] for x in sel) == w
        assert not any((a in sel and c in sel) for a, c in b.adj)
        idx = {x: i for i, x in enumerate(order)}
        g = induced_graph(b)
        assert w == brute_force_mwis(g, {idx[x]: weights[x] for x in order})[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passline(5, f"500 generated sets plus the worked example match brute force in {elapsed:.1f}s")


def _random_chordal(rng, k):
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


def test_criterion_6_chordal_solver_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(6)
    for _ in range(500):
        k = rng.randrange(1, 16)
        rel = _random_chordal(rng, k)
        weights = {v: rng.randrange(0, 101) for v in range(k)}
        sel, w = mwis_chordal(range(k), rel, weights)
        assert sum(weights[v] for v in sel) == w
        assert not any((a in sel and c in sel) for a, c in rel)
        g = Graph(k, sorted((min(a, c), max(a, c)) for a, c in rel))
        assert w == brute_force_mwis(g, weights)[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(6, f"500 chordal relations match brute force in {elapsed:.1f}s")


def test_criterion_7_recognition_scales_polynomially():
    for b in _generated_corpus():
        g = induced_graph(b)
        result, stats = recognize_with_stats(g)
        assert result is not None
        assert stats.subproblem_count <= (g.n + 1) ** 2
    sizes = (50, 100, 200, 400)
    times = []
    for n in sizes:
        g = induced_graph(gen_burling(GeneratorConfig(seed=3, target_size=n)))
        best = min(_timed_recognize(g) for _ in range(3))
        times.append(max(best, 1e-4))
    fit = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(t) for t in times]
    )
    assert fit.slope < 5.0
    _passline(
        7,
        "subproblems within (n+1)^2 on 1000 sets; "
        f"runtime slope {fit.slope:.2f} over n=50..400",
    )


def _timed_recognize(g):
    start = time.perf_counter()
    assert recognize(g) is not None
    return time.perf_counter() - start


def test_criterion_8_constraint_budget():
    worst = 0.0
    for b in _generated_corpus():
        cons = horizontal_constraints(b)
        budget = 6 * (len(b.elements) + len(b.prec) + len(b.adj))
        assert len(cons) <= budget
        worst = max(worst, len(cons) / budget)
    _passline(8, f"constraint count within 6(|S|+|R|) on 1000 sets, worst ratio {worst:.2f}")


def _nested_crossing_set(k, m):
    """k nested frames, a frame that crosses out of all of them, and m
    frames that cross out of that one, read back as a Burling set.  The
    crossing frame has k adj-targets and m escapes, so stating the escape
    rule for every pair of them takes k * m constraints."""
    z = k + 1
    frames = [
        Frame(i, i, 2 * k + 2 - i, i, 2 * k + 2 * m + 3 - i) for i in range(1, k + 1)
    ]
    frames.append(Frame(z, z, 2 * k + m + 2, z, k + 2 * m + 2))
    frames.extend(
        Frame(z + j, 2 * k + 1 + j, 2 * k + m + 2 + j, z + 2 * j - 1, z + 2 * j)
        for j in range(1, m + 1)
    )
    return extract_burling(FrameFamily(frames))


def test_criterion_8_within_cover_budget():
    # Tighter than criterion 8: prec enters through its covers only.  Each
    # element gives one constraint, each cover and each adj pair three, and
    # the escape rule one per escape of each z: a child of z or an
    # adj-in-neighbour of z.  A cover makes its element an escape of its
    # parent alone, and an adj pair (y, z) makes y an escape of z, so there
    # are at most covers + |adj| escapes.
    worst = 0.0
    nested = _nested_crossing_set(50, 50)
    assert verify_axioms(nested).ok
    assert extract_burling(build_frames(nested)) == nested
    for b in _generated_corpus() + [nested]:
        cons = horizontal_constraints(b)
        covers = len({x for x, _ in b.prec})
        budget = 6 * (len(b.elements) + covers + len(b.adj))
        assert len(cons) <= budget
        worst = max(worst, len(cons) / budget)
    _passline(
        8,
        "constraint count within 6(|S|+covers+|adj|) on 1000 sets and a "
        f"nested crossing, worst ratio {worst:.2f}",
    )
