"""Parsers, serializers, generator, oracles, SVG output, and the CLI."""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import burling
from burling import (
    BurlingSet,
    Frame,
    FrameFamily,
    GeneratorConfig,
    Graph,
    SplitMix64,
    brute_force_mwis,
    build_frames,
    components,
    dump_burling_json,
    dump_frames_json,
    exhaustive_recognize,
    extract_burling,
    frame_records,
    gen_burling,
    induced_graph,
    is_triangle_free,
    load_burling_json,
    load_frames_json,
    parse_graph_text,
    parse_weights,
    recognize,
    render_svg,
    solve_indep,
    verify_axioms,
    verify_strict,
)
from burling.cli import main
from burling.errors import InputError
from burling.io import _pair_form


def fig3_set():
    return BurlingSet(
        "abcdef",
        prec=[("e", "c")],
        adj=[("b", "a"), ("c", "a"), ("d", "a"), ("f", "d")],
    )


# ---------------------------------------------------------------- random bits


def test_splitmix64_reference_stream():
    # first outputs of the published SplitMix64 recurrence for seed 0
    r = SplitMix64(0)
    assert [r.next() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    r = SplitMix64(42)
    assert r.next() == 13679457532755275413


def test_splitmix64_helpers():
    r = SplitMix64(9)
    for _ in range(100):
        assert 0 <= r.randrange(7) < 7
    assert {SplitMix64(3).coin() for _ in range(1)} <= {0, 1}
    seen = {SplitMix64(s).coin() for s in range(16)}
    assert seen == {0, 1}


def test_generator_config_validation():
    GeneratorConfig(seed=0, target_size=1)
    with pytest.raises(InputError):
        GeneratorConfig(seed=0, target_size=0)
    GeneratorConfig(seed=0, target_size=2000)
    with pytest.raises(InputError, match="between 1 and 2000"):
        GeneratorConfig(seed=0, target_size=2001)
    with pytest.raises(InputError):
        GeneratorConfig(seed=0, target_size=3, probe_bias=-0.1)
    with pytest.raises(InputError):
        GeneratorConfig(seed=0, target_size=3, join_mix=1.1)
    # types are checked here, not left to fail inside gen_burling; bool is
    # an int subclass, so it is refused by name
    for seed, size in ((1.5, 3), ("x", 3), (True, 3), (0, 2.5), (0, True), (0, "3")):
        with pytest.raises(InputError, match="must be an integer"):
            GeneratorConfig(seed=seed, target_size=size)
    for bias in ("x", None, True, "0.5"):
        with pytest.raises(InputError, match="must be a number"):
            GeneratorConfig(seed=0, target_size=3, probe_bias=bias)
        with pytest.raises(InputError, match="must be a number"):
            GeneratorConfig(seed=0, target_size=3, join_mix=bias)
    GeneratorConfig(seed=-1, target_size=3, probe_bias=1, join_mix=0)


def test_gen_burling_sizes_and_axioms():
    for seed in range(6):
        for size in (1, 2, 5, 17):
            b = gen_burling(GeneratorConfig(seed=seed, target_size=size))
            assert len(b.elements) == size
            assert b.ordered() == list(range(size))
            assert verify_axioms(b).ok


def test_gen_burling_deterministic():
    cfg = GeneratorConfig(seed=7, target_size=12)
    assert gen_burling(cfg) == gen_burling(cfg)


def test_gen_burling_varies_with_seed():
    sets = {gen_burling(GeneratorConfig(seed=s, target_size=12)) for s in range(10)}
    assert len(sets) > 1


def test_gen_burling_bias_extremes():
    for bias in (0.0, 1.0):
        for mix in (0.0, 1.0):
            cfg = GeneratorConfig(seed=5, target_size=20, probe_bias=bias, join_mix=mix)
            assert verify_axioms(gen_burling(cfg)).ok


# -------------------------------------------------------------------- oracles


def test_brute_force_mwis_small():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    sel, w = brute_force_mwis(g, {0: 5, 1: 1, 2: 5, 3: 1})
    assert (sel, w) == (frozenset({0, 2}), 10)
    assert brute_force_mwis(Graph(1, []), {0: 3}) == (frozenset({0}), 3)


def test_brute_force_mwis_size_guard():
    g = Graph(25, [])
    with pytest.raises(InputError):
        brute_force_mwis(g, {v: 1 for v in range(25)})


def test_exhaustive_recognize_size_guard():
    with pytest.raises(InputError):
        exhaustive_recognize(Graph(9, []))


def test_exhaustive_recognize_triangle():
    assert exhaustive_recognize(Graph(3, [(0, 1), (0, 2), (1, 2)])) is None


def test_exhaustive_recognize_path_witness():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = exhaustive_recognize(g)
    assert b is not None
    assert verify_axioms(b).ok
    assert induced_graph(b).adj == g.adj


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if len(components(g, range(n))) == 1:
            yield g


def test_exhaustive_matches_recognizer_tiny():
    for n in (1, 2, 3, 4):
        for g in _connected_graphs(n):
            if not is_triangle_free(g):
                continue
            fast = recognize(g)
            slow = exhaustive_recognize(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert induced_graph(fast).adj == g.adj


def _random_two_core(rng, n):
    """A seeded triangle-free graph on n vertices, each of degree at least
    two, or None when the draw has a vertex of smaller degree."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    nbrs = [set() for _ in range(n)]
    edges = []
    for u, v in pairs:
        if rng.random() < 0.5 and not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return Graph(n, edges) if all(len(a) >= 2 for a in nbrs) else None


def test_exhaustive_matches_recognizer_on_rejecting_two_cores():
    # The cube Q3 minus a vertex is the smallest triangle-free graph that
    # is not a Burling graph.  Every vertex of a drawn 2-core has degree
    # two or more, so the dynamic program gets the whole graph; 9 of the
    # 100 are rejected.  Both take about 1 s on a 2-vCPU machine.
    start = time.perf_counter()
    pairs = itertools.combinations(range(7), 2)
    cube = Graph(7, [(u, v) for u, v in pairs if (u ^ v).bit_count() == 1])
    assert recognize(cube) is None
    assert exhaustive_recognize(cube) is None
    rng = random.Random(1)
    rejected = checked = 0
    while checked < 100:
        g = _random_two_core(rng, rng.choice((7, 8)))
        if g is None:
            continue
        fast = recognize(g)
        assert (fast is None) == (exhaustive_recognize(g) is None)
        if fast is None:
            rejected += 1
        else:
            assert verify_axioms(fast).ok and induced_graph(fast).adj == g.adj
        checked += 1
    assert rejected == 9
    assert time.perf_counter() - start < 3.0


def _canonical_form(n, nbrs) -> tuple:
    """The smallest sorted edge list over the labellings that colour
    refinement and individualization leave for the graph on 0..n-1 with
    neighbour sets nbrs: the same for isomorphic graphs.  Of twins in a
    cell, vertices whose swap is an automorphism, one is individualized."""

    def refine(colour):
        while True:
            sig = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(n)]
            rank = {key: i for i, key in enumerate(sorted(set(sig)))}
            if len(rank) == len(set(colour)):
                return [rank[key] for key in sig]
            colour = [rank[key] for key in sig]

    def search(colour):
        colour = refine(colour)
        cells = [c for c in set(colour) if colour.count(c) > 1]
        if not cells:
            edges = ((colour[u], colour[v]) for u in range(n) for v in nbrs[u] if u < v)
            return tuple(sorted(tuple(sorted(e)) for e in edges))
        cell = [v for v in range(n) if colour[v] == min(cells)]
        tried = []
        for v in cell:
            if not any(nbrs[v] - {u} == nbrs[u] - {v} for u in tried):
                tried.append(v)
        return min(search([2 * c + (w != v) for w, c in enumerate(colour)]) for v in tried)

    return search([0] * n)


def _triangle_free_census(top):
    """One graph per isomorphism class of triangle-free graphs on n <= top
    vertices, as lists per n of neighbour sets.  Deleting a vertex of
    largest degree leaves a triangle-free graph whose class is listed one
    size down, so each class arises by joining a new vertex to an
    independent set of a listed graph at least as large as every degree."""
    census = [[], [[set()]]]
    for n in range(2, top + 1):
        seen = {}
        for nbrs in census[-1]:
            for size in range(n):
                for group in itertools.combinations(range(n - 1), size):
                    if any(nbrs[u] & set(group) for u in group):
                        continue
                    new = [nbrs[u] | ({n - 1} if u in group else set()) for u in range(n - 1)]
                    if any(len(a) > size for a in new):
                        continue
                    new.append(set(group))
                    seen.setdefault(_canonical_form(n, new), new)
        census.append(list(seen.values()))
    return census


def _deleting(n, edges, x):
    """The graph on n - 1 vertices that deleting vertex x leaves, the
    vertices above x moved down by one."""
    return Graph(n - 1, [(u - (u > x), v - (v > x)) for u, v in edges if x not in (u, v)])


def test_census_of_triangle_free_graphs_matches_the_oracle():
    # Every triangle-free graph on up to 8 vertices, up to isomorphism
    # (OEIS A006785), is recognized as the exhaustive search recognizes
    # it.  The first non-Burling graphs appear at 7 vertices (Q3 minus a
    # vertex); 16 of the 8-vertex ones are not Burling graphs either, and 4
    # of those are vertex-minimal: deleting any one vertex leaves a Burling
    # graph.  Both witnesses of each accepted graph, the exhaustive one built
    # from the definitions alone, are ordered by the relation index, solved
    # exactly under seeded weights and round-tripped through frames.  About
    # 3 s on a 2-vCPU machine, 0.5 s of it the census itself.
    start = time.perf_counter()
    rng = random.Random("census")
    census = _triangle_free_census(8)
    assert [len(graphs) for graphs in census[1:]] == [1, 2, 3, 7, 14, 38, 107, 410]
    rejected, minimal = [], []
    for n, graphs in enumerate(census):
        rejected.append(0)
        minimal.append(0)
        for nbrs in graphs:
            edges = [(u, v) for u in range(n) for v in nbrs[u] if u < v]
            g = Graph(n, edges)
            fast, slow = recognize(g), exhaustive_recognize(g)
            assert (fast is None) == (slow is None), nbrs
            if fast is None:
                rejected[n] += 1
                minimal[n] += all(recognize(_deleting(n, edges, x)) is not None for x in range(n))
                continue
            weights = [rng.randrange(10) for _ in range(n)]
            best = brute_force_mwis(g, dict(enumerate(weights)))[1]
            for b in (fast, slow):
                assert verify_axioms(b).ok and induced_graph(b).adj == g.adj
                names = dict(zip(b.ordered(), weights))
                assert solve_indep(b, names)[1] == best, nbrs
                assert extract_burling(build_frames(b)) == b, nbrs
    assert rejected == [0] * 7 + [1, 16]
    assert minimal == [0] * 7 + [1, 4]
    assert time.perf_counter() - start < 30.0


# ------------------------------------------------------------------- graph io


def test_parse_graph_text_basic():
    text = "# path on four vertices\n4\n\n0 1\n1 2\n2 3\n"
    g = parse_graph_text(text)
    assert g.n == 4
    assert g.adj[1] == frozenset({0, 2})


def test_parse_graph_text_rejections():
    for text in (
        "",
        "# only comments\n",
        "0\n",
        "-2\n",
        "two\n",
        "3 1\n",
        "3\n0\n",
        "3\n0 1 2\n",
        "3\n0 a\n",
        "3\n0 3\n",
        "3\n-1 2\n",
        "3\n1 1\n",
        "3\n0 1\n0 1\n",
        "3\n0 1\n1 0\n",
    ):
        with pytest.raises(InputError):
            parse_graph_text(text)


def test_parse_graph_text_rejects_huge_count_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="limit of 100000"):
            parse_graph_text("1000000000\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert parse_graph_text("100000\n").n == 100000


# ------------------------------------------------------------------- set json


def test_burling_json_round_trip():
    b = fig3_set()
    assert load_burling_json(dump_burling_json(b)) == b


def test_burling_json_coerces_int_names():
    b = load_burling_json('{"elements": [1, 2], "adj": [[1, 2]]}')
    assert b == BurlingSet(["1", "2"], adj=[("1", "2")])
    # string elements, one integer name in a pair: the entry-by-entry walk
    b = load_burling_json('{"elements": ["1", "2", "3"], "prec": [["1", 2], ["1", "3"]]}')
    assert b == BurlingSet(["1", "2", "3"], prec=[("1", "2"), ("1", "3")])


def test_burling_json_keeps_one_copy_of_a_repeated_pair():
    text = '{"elements": ["a", "b", "c"], "prec": [["a", "b"], ["a", "b"]], "adj": [["c", "a"]]}'
    b = load_burling_json(text)
    assert b == load_burling_json(text.replace('["a", "b"], ["a", "b"]', '["a", "b"]'))
    assert b == BurlingSet("abc", prec=[("a", "b")], adj=[("c", "a")])
    assert repr(b) == "BurlingSet(3 elements, 1 prec, 1 adj)"


def test_burling_json_rejections():
    # The messages are those of the one-entry-at-a-time checks, which the
    # bulk checks fall back on to name the first bad entry.
    for text, message in (
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "expected an object with an 'elements' list"),
        ("{}", "expected an object with an 'elements' list"),
        ('{"elements": "ab"}', "'elements' must be a list"),
        ('{"elements": ["a", "a"]}', "duplicate element names"),
        ('{"elements": [true]}', "element name True must be a string"),
        ('{"elements": ["a", 1.5]}', "element name 1.5 must be a string"),
        ('{"elements": ["a", null]}', "element name None must be a string"),
        ('{"elements": ["a"], "prec": [["a"]]}', "'prec' entry ['a'] is not a pair"),
        ('{"elements": ["a"], "prec": 3}', "'prec' must be a list of pairs"),
        ('{"elements": ["a", "b"], "prec": ["ab"]}', "'prec' entry 'ab' is not a pair"),
        (
            '{"elements": ["a", "b"], "prec": [["a", "b"], {"a": 1, "b": 2}]}',
            "'prec' entry {'a': 1, 'b': 2} is not a pair",
        ),
        (
            '{"elements": ["a", "b"], "adj": [["a", "b", "a"]]}',
            "'adj' entry ['a', 'b', 'a'] is not a pair",
        ),
        ('{"elements": ["a", "b"], "prec": [["a", 1.5]]}', "element name 1.5 must be a string"),
        ('{"elements": ["a", "b"], "adj": [[null, "b"]]}', "element name None must be a string"),
        (
            '{"elements": ["a", "b"], "adj": [["a", "c"]]}',
            "adj pair ('a', 'c') references an undeclared element",
        ),
        (
            '{"elements": ["a", "b"], "prec": [["a", "b"], ["b", "z"]]}',
            "prec pair ('b', 'z') references an undeclared element",
        ),
        (
            '{"elements": ["a", "b"], "adj": [["z", "a"]]}',
            "adj pair ('z', 'a') references an undeclared element",
        ),
        (
            '{"elements": [1, 2], "adj": [[1, 3]]}',
            "adj pair ('1', '3') references an undeclared element",
        ),
        # 8 MiB of text is parsed, and one character more refused unread
        (" " * 2**23, "invalid JSON: Expecting value: line 1 column 8388609 (char 8388608)"),
        (
            " " * (2**23 + 1),
            "text of 8388609 characters exceeds the limit of 8388608",
        ),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_burling_json(text)


def test_burling_json_cover_form_rejections():
    for text, message in (
        (
            '{"elements": ["a", "b", "c"], "cover": [["a", "b"], ["b", "c"], ["c", "b"]]}',
            "the covers form a cycle: b -> c -> b",
        ),
        ('{"elements": ["a", "b"], "cover": [["b", "b"]]}', "the covers form a cycle: b -> b"),
        (
            # two disjoint cycles: the one reached from the least element
            '{"elements": ["a", "b", "c", "d", "e"],'
            ' "cover": [["a", "e"], ["b", "c"], ["c", "b"], ["d", "e"], ["e", "d"]]}',
            "the covers form a cycle: e -> d -> e",
        ),
        (
            # a hangs below a cycle whose least member, c, is larger than it
            '{"elements": ["a", "b", "c", "d"],'
            ' "cover": [["a", "d"], ["c", "d"], ["d", "c"]]}',
            "the covers form a cycle: d -> c -> d",
        ),
        (
            '{"elements": ["a", "b", "c"], "cover": [["a", "b"], ["a", "c"]]}',
            "element 'a' has more than one cover",
        ),
        (
            '{"elements": ["a", "b"], "cover": [["a", "b"], ["a", "b"]]}',
            "element 'a' has more than one cover",
        ),
        (
            '{"elements": ["a", "b"], "cover": [["a", "z"]]}',
            "cover pair ('a', 'z') references an undeclared element",
        ),
        (
            '{"elements": ["a", "b"], "cover": [], "adj": [["z", "a"]]}',
            "adj pair ('z', 'a') references an undeclared element",
        ),
        ('{"elements": ["a", "b"], "cover": [["a"]]}', "'cover' entry ['a'] is not a pair"),
        ('{"elements": ["a", "b"], "cover": "ab"}', "'cover' must be a list of pairs"),
        (
            '{"elements": ["a", "b"], "cover": [["a", "b"]], "prec": [["a", "b"]]}',
            "a document may not have both 'prec' and 'cover'",
        ),
        ('{"elements": [], "cover": []}', "a Burling set needs at least one element"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_burling_json(text)


def _named(b: BurlingSet) -> BurlingSet:
    """b with its element ids turned into strings, as a file names them."""
    return BurlingSet(
        map(str, b.elements),
        [(str(x), str(y)) for x, y in b.prec],
        [(str(x), str(y)) for x, y in b.adj],
    )


def test_burling_json_round_trip_in_both_forms():
    # Sets whose elements are all settled are written as covers and read
    # back held by them; a set with an element that is not settled is
    # written and read as pairs.
    sets = []
    for seed in range(12):
        b = gen_burling(GeneratorConfig(seed=seed, target_size=40, probe_bias=0.3, join_mix=0.8))
        sets += [b, recognize(induced_graph(b)), extract_burling(build_frames(b))]
    for b in sets:
        text = dump_burling_json(b)
        assert '"cover"' in text and '"prec"' not in text
        loaded = load_burling_json(text)
        assert loaded._by_covers and loaded == _named(b)
    unsettled = BurlingSet("xyz", prec=[("x", "y"), ("x", "z")], adj=[("y", "z")])
    assert len(unsettled._cover) < 3
    text = dump_burling_json(unsettled)
    assert json.loads(text)["prec"] == [["x", "y"], ["x", "z"]]
    assert load_burling_json(text) == unsettled


def _covers_of(b: BurlingSet) -> list:
    """[x, c] for each element x of a set whose elements are all settled
    and x's cover c, read off prec's pairs: x's target with most targets."""
    above = {x: {y for a, y in b.prec if a == x} for x in b.elements}
    return sorted(
        [str(x), str(max(ys, key=lambda y: len(above[y])))] for x, ys in above.items() if ys
    )


def test_dump_burling_json_is_sorted_json():
    data = json.loads(dump_burling_json(fig3_set()))
    assert list(data) == ["elements", "cover", "adj"]
    assert data["elements"] == list("abcdef")
    assert data["cover"] == [["e", "c"]]
    assert data["adj"][0] == ["b", "a"]


# Names that JSON escapes, and whose raw and escaped forms sort differently
# ("z\n" < "é" but "\\u00e9" < "z\\n").
_ESCAPED = ['a"b', "back\\slash", "z\n", "\u00e9", "\u2603"]


def _generated_sets():
    return [gen_burling(GeneratorConfig(seed=seed, target_size=30)) for seed in range(20)]


def test_dump_burling_json_matches_the_json_encoder():
    sets = [
        BurlingSet("ab"),  # empty prec and adj
        BurlingSet(_ESCAPED, prec=[("\u00e9", 'a"b')], adj=[("z\n", 'a"b'), ("\u2603", "\u00e9")]),
    ]
    for b in sets + _generated_sets():
        doc = {
            "elements": [str(x) for x in b.ordered()],
            "cover": _covers_of(b),
            "adj": sorted([str(a), str(c)] for a, c in b.adj),
        }
        assert dump_burling_json(b) == json.dumps(doc, indent=1)
    # an element that is not settled: x's targets y and z are unrelated
    b = BurlingSet(_ESCAPED + ["x"], prec=[("x", "z\n"), ("x", "\u00e9")], adj=[("x", 'a"b')])
    doc = {
        "elements": [str(x) for x in b.ordered()],
        "prec": sorted([str(a), str(c)] for a, c in b.prec),
        "adj": sorted([str(a), str(c)] for a, c in b.adj),
    }
    assert dump_burling_json(b) == json.dumps(doc, indent=1)


# ----------------------------------------------------------------- frames json


def test_frames_json_round_trip():
    fam = build_frames(fig3_set())
    again = load_frames_json(dump_frames_json(fam))
    assert again == fam


def test_dump_frames_json_matches_the_json_encoder():
    families = [
        FrameFamily([]),
        FrameFamily([Frame('a"b', 0, 5, 0, 5), Frame("\u00e9", 1, 4, 1, 4), Frame("z\n", 2, 3, 2, 3)]),
    ]
    families += [build_frames(b) for b in _generated_sets()]
    for fam in families:
        doc = [{"id": str(f.id), "l": f.l, "r": f.r, "b": f.b, "t": f.t} for f in fam]
        assert dump_frames_json(fam) == json.dumps(doc, indent=1)


def _frame_obj(fid, l, r, b, t):
    return {"id": fid, "l": l, "r": r, "b": b, "t": t}


def test_frames_json_rejections():
    for doc in (
        "not json",
        "{}",
        "[[1, 2, 3]]",
        json.dumps([{"id": "x", "l": 1, "r": 2, "b": 1}]),
        json.dumps([_frame_obj("x", 1, 2, 1, "t")]),
        json.dumps([_frame_obj("x", 1, 2, 1, 2.5)]),
        json.dumps([_frame_obj("x", 1, 2, 1, True)]),
        json.dumps([_frame_obj("x", 2, 1, 0, 1)]),
        json.dumps([_frame_obj("x", 0, 1, 0, 1), _frame_obj("x", 2, 3, 2, 3)]),
    ):
        with pytest.raises(InputError):
            load_frames_json(doc)


def test_frames_json_text_cap():
    # 384 KiB of text is parsed, and one character more refused unread,
    # by both readers of frames JSON
    for read in (load_frames_json, frame_records):
        for text, message in (
            (" " * 393216, "invalid JSON: Expecting value: line 1 column 393217 (char 393216)"),
            (" " * 393217, "text of 393217 characters exceeds the limit of 393216"),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                read(text)


# -------------------------------------------------------------------- weights


def test_parse_weights_basic():
    got = parse_weights("# w\n0 5\n1 0\n2 12\n", ["0", "1", "2"])
    assert got == {"0": 5, "1": 0, "2": 12}


def test_parse_weights_rejections():
    names = ["0", "1"]
    for text in ("0 1\n", "0 1\n1 2\n9 1\n", "0 1\n0 2\n1 1\n", "0 x\n1 1\n", "0 -1\n1 1\n", "0\n1 1\n"):
        with pytest.raises(InputError):
            parse_weights(text, names)


# ------------------------------------------------------------------------ svg


def test_render_svg_singleton():
    svg = render_svg(build_frames(BurlingSet("x")))
    assert svg == (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="30" height="30" viewBox="0 0 30 30">\n'
        '  <rect x="10" y="10" width="10" height="10" fill="none" '
        'stroke="black" stroke-width="1"/>\n'
        '  <text x="12" y="15" font-size="8" font-family="sans-serif">x</text>\n'
        "</svg>\n"
    )


def test_render_svg_escapes_labels():
    fam = FrameFamily([Frame("a<b", 0, 2, 0, 2)])
    assert "a&lt;b" in render_svg(fam)
    # Only &, < and > are replaced; quotes stay as they are in text content.
    fam = FrameFamily([Frame("a&<>\"'b", 0, 2, 0, 2)])
    assert render_svg(fam) == (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="40" height="40" viewBox="0 0 40 40">\n'
        '  <rect x="10" y="10" width="20" height="20" '
        'fill="none" stroke="black" stroke-width="1"/>\n'
        '  <text x="12" y="20" font-size="8" '
        'font-family="sans-serif">a&amp;&lt;&gt;"\'b</text>\n'
        "</svg>\n"
    )


def test_every_public_name_has_a_docstring():
    bare = [
        name
        for name in burling.__all__
        if not (getattr(burling, name).__doc__ or "").strip()
    ]
    assert bare == []


def test_import_loads_no_url_handling():
    # xml.sax.saxutils would pull in urllib.request and http.client, a
    # large share of the package's import time.  Beyond those, importing
    # the package loads the standard library and its own modules only:
    # networkx, say, may be installed but is no dependency.  Modules the
    # interpreter loaded at start-up (site hooks among them) are left out.
    src = str(Path(burling.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; before = set(sys.modules); import burling; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=True,
    )
    loaded = out.stdout.strip()[1:-1].replace("'", "").split(", ")
    assert "burling.svg" in loaded
    assert "urllib.request" not in loaded
    assert "http.client" not in loaded
    top = {name.split(".")[0] for name in loaded}
    assert top - {"burling"} <= sys.stdlib_module_names, sorted(top - sys.stdlib_module_names)


def test_render_svg_is_well_formed():
    svg = render_svg(build_frames(fig3_set()))
    root = ET.fromstring(svg)
    tags = [el.tag.rsplit("}", 1)[-1] for el in root.iter()]
    assert tags.count("rect") == 6
    assert tags.count("text") == 6


def test_render_svg_empty_family():
    svg = render_svg(FrameFamily([]))
    assert 'width="20" height="20"' in svg
    assert "<rect" not in svg


# ------------------------------------------------------------------------ cli


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_recognize_path(tmp_path, capsys):
    path = _write(tmp_path, "p4.graph", "4\n0 1\n1 2\n2 3\n")
    assert main(["recognize", path]) == 0
    b = load_burling_json(capsys.readouterr().out)
    assert verify_axioms(b).ok
    assert induced_graph(b).adj == parse_graph_text("4\n0 1\n1 2\n2 3\n").adj


def test_cli_recognize_triangle(tmp_path, capsys):
    path = _write(tmp_path, "k3.graph", "3\n0 1\n0 2\n1 2\n")
    assert main(["recognize", path]) == 1
    assert capsys.readouterr().out.strip() == "NOT_BURLING"


def test_cli_recognize_missing_file(tmp_path, capsys):
    assert main(["recognize", str(tmp_path / "nope.graph")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_recognize_bad_graph(tmp_path, capsys):
    path = _write(tmp_path, "bad.graph", "3\n0 1\n0 1\n")
    assert main(["recognize", path]) == 2


def test_cli_frames_round_trip(tmp_path, capsys):
    setfile = _write(tmp_path, "fig3.json", dump_burling_json(fig3_set()))
    assert main(["frames", setfile]) == 0
    fam = load_frames_json(capsys.readouterr().out)
    assert verify_strict(fam).ok
    assert extract_burling(fam) == fig3_set()


def test_cli_frames_rejects_invalid_set(tmp_path, capsys):
    bad = '{"elements": ["x"], "prec": [["x", "x"]]}'
    setfile = _write(tmp_path, "bad.json", bad)
    assert main(["frames", setfile]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_mis(tmp_path, capsys):
    graph = _write(tmp_path, "p4.graph", "4\n0 1\n1 2\n2 3\n")
    weights = _write(tmp_path, "p4.w", "0 5\n1 1\n2 5\n3 1\n")
    assert main(["mis", graph, "--weights", weights]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["10", "0 2"]


def test_cli_mis_triangle(tmp_path, capsys):
    graph = _write(tmp_path, "k3.graph", "3\n0 1\n0 2\n1 2\n")
    weights = _write(tmp_path, "k3.w", "0 1\n1 1\n2 1\n")
    assert main(["mis", graph, "--weights", weights]) == 1
    assert capsys.readouterr().out.strip() == "NOT_BURLING"


def test_cli_mis_bad_weights(tmp_path):
    graph = _write(tmp_path, "p4.graph", "4\n0 1\n1 2\n2 3\n")
    weights = _write(tmp_path, "p4.w", "0 5\n")
    assert main(["mis", graph, "--weights", weights]) == 2


def test_cli_verify_set(tmp_path, capsys):
    good = _write(tmp_path, "good.json", dump_burling_json(fig3_set()))
    assert main(["verify", "set", good]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    bad = _write(tmp_path, "bad.json", '{"elements": ["x", "y"], "prec": [["x", "y"], ["y", "x"]]}')
    assert main(["verify", "set", bad]) == 1
    assert "prec" in capsys.readouterr().out


def test_cli_verify_frames(tmp_path, capsys):
    good = _write(tmp_path, "good.json", dump_frames_json(build_frames(fig3_set())))
    assert main(["verify", "frames", good]) == 0
    assert capsys.readouterr().out.strip() == "OK"

    crossing = json.dumps([_frame_obj(0, 0, 4, 0, 4), _frame_obj(1, 1, 5, 1, 5)])
    bad = _write(tmp_path, "bad.json", crossing)
    assert main(["verify", "frames", bad]) == 1
    assert "pair-pattern" in capsys.readouterr().out

    touching = json.dumps([_frame_obj(0, 0, 4, 0, 4), _frame_obj(1, 4, 8, 2, 6)])
    geom = _write(tmp_path, "geom.json", touching)
    assert main(["verify", "frames", geom]) == 1
    capsys.readouterr()

    shape = _write(tmp_path, "shape.json", "[[0, 1, 2]]")
    assert main(["verify", "frames", shape]) == 2

    # Frame checks the coordinates' types and order; only a type is an
    # input error
    flipped = _write(tmp_path, "flipped.json", json.dumps([_frame_obj(0, 4, 0, 0, 4)]))
    assert main(["verify", "frames", flipped]) == 1
    for t in (4.5, True, "4"):
        typed = _write(tmp_path, "typed.json", json.dumps([_frame_obj(0, 0, 4, 0, t)]))
        assert main(["verify", "frames", typed]) == 2
    capsys.readouterr()


def test_cli_gen(tmp_path, capsys):
    assert main(["gen", "--n", "9", "--seed", "3"]) == 0
    b = load_burling_json(capsys.readouterr().out)
    assert len(b.elements) == 9
    assert verify_axioms(b).ok
    assert main(["gen", "--n", "9", "--seed", "3", "--probe-bias", "1.5"]) == 2


@pytest.fixture(scope="module")
def set_at_the_cap(tmp_path_factory):
    """A file holding what gen --n 2000 --seed 1 prints: the generator's
    cap, 513 979 prec pairs and 2 283 adj pairs."""
    path = tmp_path_factory.mktemp("cap") / "gen-2000-1.json"
    path.write_text(dump_burling_json(gen_burling(GeneratorConfig(seed=1, target_size=2000))))
    return str(path)


_CLI_CHILD = """
import contextlib, io, time
from burling.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, time.perf_counter() - start, peak_kib())
"""


@pytest.mark.parametrize("command", [("verify", "set"), ("frames",)])
def test_cli_at_the_generator_cap_within_memory_and_time_budget(
    run_child, set_at_the_cap, command
):
    # Two rows of the per-command budgets.  Both commands load the set and
    # check it on its cover forest: about 0.1 s and 20 MB each on a 2-vCPU
    # machine from the cover form, where the pair form took 0.6-1.1 s and
    # 160-177 MB, and reading prec's closure 1.1-2.0 s and 192-209 MB.
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=[*command, set_at_the_cap]))
    assert code == "0"
    assert float(elapsed) < 2.0
    assert int(peak_kib) < 200 * 1024


@pytest.fixture(scope="module")
def inner_joins_at_the_cap(tmp_path_factory):
    """A file holding what gen --n 2000 --seed 1 --probe-bias 0 --join-mix 1
    prints: every move an inner join, 1 997 001 prec pairs, written as
    1 999 covers in 129 534 bytes."""
    path = tmp_path_factory.mktemp("cap") / "gen-2000-1-inner.json"
    cfg = GeneratorConfig(seed=1, target_size=2000, probe_bias=0, join_mix=1)
    path.write_text(dump_burling_json(gen_burling(cfg)))
    return str(path)


@pytest.mark.parametrize("command", [("verify", "set"), ("frames",)])
def test_cli_on_inner_joins_at_the_cap_within_memory_and_time_budget(
    run_child, inner_joins_at_the_cap, command
):
    # The same budget on the generator's largest prec.  Written as pairs,
    # the file took 58 MB, and each command 3.5-4.0 s and 642 MB; written
    # as covers, about 0.4 s and 20 MB on a 2-vCPU machine.
    argv = [*command, inner_joins_at_the_cap]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "0"
    assert float(elapsed) < 2.0
    assert int(peak_kib) < 200 * 1024


@pytest.fixture(scope="module")
def pair_forms_at_the_text_cap(tmp_path_factory):
    """Files holding the pair form of gen --n 760 and --n 800 --seed 1
    --probe-bias 0 --join-mix 1, of 7 999 047 and 8 868 047 characters: on
    either side of load_burling_json's cap of 8 MiB."""
    folder = tmp_path_factory.mktemp("text-cap")
    paths = []
    for n in (760, 800):
        cfg = GeneratorConfig(seed=1, target_size=n, probe_bias=0, join_mix=1)
        path = folder / f"pairs-{n}.json"
        path.write_text(_pair_form(gen_burling(cfg)))
        paths.append(str(path))
    return paths


def test_cli_refuses_a_set_file_over_the_text_cap(run_child, pair_forms_at_the_text_cap):
    # A pair-form file at the generator's cap took 3.5-4.0 s and 642 MB to
    # check; one just over 8 MiB is refused before it is parsed.
    argv = ["verify", "set", pair_forms_at_the_text_cap[1]]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "2"
    assert float(elapsed) < 1.0
    assert int(peak_kib) < 60 * 1024


@pytest.mark.parametrize("command", [("verify", "set"), ("frames",)])
def test_cli_on_a_pair_form_below_the_text_cap_within_memory_and_time_budget(
    run_child, pair_forms_at_the_text_cap, command
):
    # The largest pair-form file of the all-inner-joins family under the
    # cap: about 0.7 s and 100 MB on a 2-vCPU machine.
    argv = [*command, pair_forms_at_the_text_cap[0]]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "0"
    assert float(elapsed) < 2.0
    assert int(peak_kib) < 200 * 1024


@pytest.fixture(scope="module")
def frames_at_the_cap(set_at_the_cap, inner_joins_at_the_cap, tmp_path_factory):
    """Files holding what frames prints for the two sets at the generator's
    cap above, 144 678 bytes each."""
    folder = tmp_path_factory.mktemp("frames-cap")
    paths = []
    for setfile in (set_at_the_cap, inner_joins_at_the_cap):
        path = folder / Path(setfile).name
        b = load_burling_json(Path(setfile).read_text())
        path.write_text(dump_frames_json(build_frames(b)))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("which", [0, 1])
def test_cli_verify_frames_at_the_generator_cap_within_memory_and_time_budget(
    run_child, frames_at_the_cap, which
):
    # About 0.1-0.3 s and 20 MB on a 2-vCPU machine.
    argv = ["verify", "frames", frames_at_the_cap[which]]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "0"
    assert float(elapsed) < 2.0
    assert int(peak_kib) < 200 * 1024


def _column(n: int) -> str:
    """Frames JSON of n frames stacked in y, Frame(i, i, n + i, 2i, 2i + 1):
    no two meet, yet every two overlap in x, so the sweep visits every
    pair."""
    return dump_frames_json(FrameFamily(Frame(i, i, n + i, 2 * i, 2 * i + 1) for i in range(n)))


@pytest.fixture(scope="module")
def columns_at_the_frames_cap(tmp_path_factory):
    """Files holding the columns of 5 340 and 5 341 frames, of 393 192 and
    393 270 characters: on either side of the frames text cap, 393 216."""
    folder = tmp_path_factory.mktemp("frames-text-cap")
    paths = []
    for n in (5340, 5341):
        path = folder / f"column-{n}.json"
        path.write_text(_column(n))
        paths.append(str(path))
    return paths


def test_cli_verify_frames_at_the_frames_text_cap_within_memory_and_time_budget(
    run_child, columns_at_the_frames_cap
):
    # The largest column under the cap takes about 0.6-0.9 s and 21 MB on a
    # 2-vCPU machine (10 000 frames took 2.2 s); one frame more is refused
    # before it is parsed.
    below, over = (Path(p).read_text() for p in columns_at_the_frames_cap)
    assert len(below) <= 393216 < len(over)
    argv = ["verify", "frames", columns_at_the_frames_cap[0]]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "0"
    assert float(elapsed) < 2.0
    assert int(peak_kib) < 200 * 1024
    argv = ["verify", "frames", columns_at_the_frames_cap[1]]
    (code, elapsed, peak_kib), _ = run_child(_CLI_CHILD.format(argv=argv))
    assert code == "2"
    assert float(elapsed) < 1.0
    assert int(peak_kib) < 60 * 1024


def test_cli_svg(tmp_path, capsys):
    frames = _write(tmp_path, "f.json", dump_frames_json(build_frames(fig3_set())))
    out = str(tmp_path / "out.svg")
    assert main(["svg", frames, "-o", out]) == 0
    text = (tmp_path / "out.svg").read_text()
    assert text.startswith("<svg ") and text.endswith("</svg>\n")

    touching = json.dumps([_frame_obj(0, 0, 4, 0, 4), _frame_obj(1, 4, 8, 2, 6)])
    bad = _write(tmp_path, "bad.json", touching)
    assert main(["svg", bad, "-o", out]) == 2


def test_cli_oracles(tmp_path, capsys):
    graph = _write(tmp_path, "p4.graph", "4\n0 1\n1 2\n2 3\n")
    assert main(["oracle", "recognize", graph]) == 0
    b = load_burling_json(capsys.readouterr().out)
    assert induced_graph(b).adj == parse_graph_text("4\n0 1\n1 2\n2 3\n").adj

    k3 = _write(tmp_path, "k3.graph", "3\n0 1\n0 2\n1 2\n")
    assert main(["oracle", "recognize", k3]) == 1
    assert capsys.readouterr().out.strip() == "NOT_BURLING"

    weights = _write(tmp_path, "p4.w", "0 5\n1 1\n2 5\n3 1\n")
    assert main(["oracle", "mis", graph, "--weights", weights]) == 0
    assert capsys.readouterr().out.splitlines() == ["10", "0 2"]


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err
