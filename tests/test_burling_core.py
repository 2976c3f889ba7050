"""Burling set container, axiom verification, classification, and joins."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from graphlib import CycleError, TopologicalSorter

import pytest

from burling import (
    BurlingSet,
    GeneratorConfig,
    Graph,
    build_frames,
    classify_elements,
    dump_burling_json,
    extract_burling,
    gen_burling,
    induced_graph,
    inner_join,
    load_burling_json,
    outer_join,
    recognize,
    restrict,
    verify_axioms,
)
from burling import core
from burling.core import (
    VerificationReport,
    Violation,
    _chordal_forest,
    _find_cycle,
    _topo_sort,
)
from burling.errors import ContractError, InputError
from burling.io import _pair_form


def fig3():
    return BurlingSet(
        "abcdef",
        prec=[("e", "c")],
        adj=[("b", "a"), ("c", "a"), ("d", "a"), ("f", "d")],
    )


def _checks(b):
    return {v.check for v in verify_axioms(b).violations}


def test_constructor_validation():
    for build, message in (
        (lambda: BurlingSet([]), "a Burling set needs at least one element"),
        (
            lambda: BurlingSet("ab", prec=[("a", "z")]),
            "prec pair ('a', 'z') references an undeclared element",
        ),
        (lambda: BurlingSet("ab", adj=[("a",)]), "adj entry ('a',) is not a pair"),
        (
            lambda: BurlingSet("ab", prec=[("a", "b", "c")]),
            "prec entry ('a', 'b', 'c') is not a pair",
        ),
        (lambda: BurlingSet("ab", adj=[("a", "b"), 3]), "adj entry 3 is not a pair"),
        (
            lambda: BurlingSet("ab", adj=(p for p in [("a", "b"), ("b", "q")])),
            "adj pair ('b', 'q') references an undeclared element",
        ),
        (lambda: BurlingSet([1, "a"]), "element ids must be mutually comparable"),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()
    b = BurlingSet("ba")
    assert b.ordered() == ["a", "b"]
    # Any two-item iterable is a pair: lists, strings and generators are
    # taken as they were before the relations were checked in bulk.
    expected = BurlingSet("abc", prec=[("a", "b")], adj=[("c", "a")])
    assert BurlingSet("abc", prec=[["a", "b"]], adj=["ca"]) == expected
    assert BurlingSet("abc", prec=(p for p in ["ab"]), adj={("c", "a")}) == expected
    assert BurlingSet("abc", prec=expected.prec, adj=expected.adj) == expected


def test_valid_sets_pass():
    assert verify_axioms(fig3()).ok
    assert verify_axioms(BurlingSet("x")).ok
    # two crossing pairs through a shared target
    assert verify_axioms(BurlingSet("xyz", adj=[("x", "z"), ("y", "z")])).ok


def test_spec_p4_witness_passes():
    b = BurlingSet(range(4), adj=[(0, 1), (2, 1), (3, 2)])
    assert verify_axioms(b).ok


def test_c4_witness_passes():
    b = BurlingSet(
        range(4),
        prec=[(2, 0)],
        adj=[(1, 2), (3, 2), (1, 0), (3, 0)],
    )
    assert verify_axioms(b).ok
    g = induced_graph(b)
    assert sorted(tuple(sorted((u, v))) for u in range(4) for v in g.adj[u] if u < v) \
        == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_irreflexive_violation():
    assert "prec-irreflexive" in _checks(BurlingSet("ab", prec=[("a", "a")]))


def test_transitivity_violation():
    assert "prec-transitive" in _checks(
        BurlingSet("abc", prec=[("a", "b"), ("b", "c")])
    )
    # mutual pair: a prec b prec a forces a prec a
    assert "prec-transitive" in _checks(
        BurlingSet("ab", prec=[("a", "b"), ("b", "a")])
    )


def test_adj_cycle_violation():
    assert "adj-acyclic" in _checks(BurlingSet("ab", adj=[("a", "b"), ("b", "a")]))
    assert "adj-acyclic" in _checks(
        BurlingSet("abc", adj=[("a", "b"), ("b", "c"), ("c", "a")])
    )


def test_out_chain_violations():
    # two prec targets, unrelated
    assert "prec-out-chain" in _checks(
        BurlingSet("abc", prec=[("a", "b"), ("a", "c")])
    )
    # two adj targets, unrelated
    assert "adj-out-chain" in _checks(
        BurlingSet("abc", adj=[("a", "b"), ("a", "c")])
    )
    # related targets are fine
    assert verify_axioms(
        BurlingSet("abc", prec=[("a", "b"), ("a", "c"), ("b", "c")])
    ).ok


def test_adj_target_enclosed_violation():
    # x adj y and x prec z demand y prec z
    assert "adj-target-enclosed" in _checks(
        BurlingSet("xyz", prec=[("x", "z")], adj=[("x", "y")])
    )
    assert verify_axioms(
        BurlingSet("xyz", prec=[("x", "z"), ("y", "z")], adj=[("x", "y")])
    ).ok


def test_adj_extends_upward_violation():
    # x adj y and y prec z demand x adj z or x prec z
    assert "adj-extends-upward" in _checks(
        BurlingSet("xyz", prec=[("y", "z")], adj=[("x", "y")])
    )
    assert verify_axioms(
        BurlingSet("xyz", prec=[("y", "z")], adj=[("x", "y"), ("x", "z")])
    ).ok


def _union_is_acyclic(b) -> bool:
    graph = {x: set() for x in b.elements}
    for x, y in b.prec | b.adj:
        graph[x].add(y)
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError:
        return False
    return True


def test_verified_sets_have_an_acyclic_union():
    # verify_axioms has no check of its own for cycles of prec ∪ adj: the
    # axioms it checks rule them out.  Every pair of loop-free relations on
    # 3 elements (a loop breaks irreflexivity or adj-acyclic), then random
    # relations with loops on 4 and 5 elements.
    pairs = [p for p in itertools.product(range(3), repeat=2) if p[0] != p[1]]
    subsets = [
        [p for i, p in enumerate(pairs) if mask >> i & 1] for mask in range(1 << len(pairs))
    ]
    passed = 0
    for prec, adj in itertools.product(subsets, repeat=2):
        b = BurlingSet(range(3), prec, adj)
        if verify_axioms(b).ok:
            passed += 1
            assert _union_is_acyclic(b), b
    assert passed > 50
    rng = random.Random(31)
    passed = 0
    for _ in range(6000):
        k = rng.choice((4, 5))
        every = list(itertools.product(range(k), repeat=2))
        density = rng.choice((0.05, 0.1, 0.15))
        prec = [p for p in every if rng.random() < density]
        adj = [p for p in every if rng.random() < density]
        b = BurlingSet(range(k), prec, adj)
        if verify_axioms(b).ok:
            passed += bool(b.prec and b.adj)
            assert _union_is_acyclic(b), b
    assert passed > 100


def _per_pair_report(b):
    """verify_axioms as it was before settled elements: irreflexivity and
    transitivity checked on every prec pair, prec-out-chain tested at every
    element, and the adj axioms on the relation maps of prec's pairs."""
    elems = b._order
    prec = b.prec
    out_prec, out_adj = core._maps(elems, prec), core._maps(elems, b.adj)
    in_prec = {x: set() for x in elems}
    for x, y in prec:
        in_prec[y].add(x)
    pairs = sorted(prec)
    viols = []
    for x, y in pairs:
        if x == y:
            viols.append(Violation("prec-irreflexive", (x,)))
    for x, y in pairs:
        if x == y:
            continue
        extra = out_prec[y] - out_prec[x] - {x}
        if extra:
            viols.append(Violation("prec-transitive", (x, y, min(extra))))
        if x in out_prec[y] and (x, x) not in prec:
            viols.append(Violation("prec-transitive", (x, y, x)))
    cyc = _find_cycle(elems, out_adj)
    if cyc is not None:
        viols.append(Violation("adj-acyclic", cyc))
    in_count = {x: len(in_prec[x]) for x in elems}

    def chain_gap(targets):
        ts = sorted(targets, key=lambda t: (in_count[t], t))
        for a, c in zip(ts, ts[1:]):
            if (a, c) not in prec and (c, a) not in prec:
                return (a, c)
        return None

    for x in elems:
        for check, targets in (("prec-out-chain", out_prec[x]), ("adj-out-chain", out_adj[x])):
            gap = chain_gap(targets)
            if gap is not None:
                viols.append(Violation(check, (x, *gap)))
    for x, y in sorted(b.adj):
        extra = out_prec[x] - out_prec[y]
        if extra:
            viols.append(Violation("adj-target-enclosed", (x, y, min(extra))))
        extra = out_prec[y] - out_adj[x] - out_prec[x]
        if extra:
            viols.append(Violation("adj-extends-upward", (x, y, min(extra))))
    return VerificationReport(tuple(viols))


def _adj_mutation(rng, elems, adj, times):
    """adj with a pair added, dropped or reversed, times times over."""
    adj = set(adj)
    for _ in range(times):
        change = rng.choice(("add", "drop", "reverse")) if adj else "add"
        if change == "add":
            adj.add((rng.choice(elems), rng.choice(elems)))
        else:
            pair = rng.choice(sorted(adj))
            adj.discard(pair)
            if change == "reverse":
                adj.add(pair[::-1])
    return adj


def _reference_cases(rng):
    """Generated sets, each also with one prec or adj pair added or removed
    and with adj alone changed at one or two pairs, then random relations
    with loops on 1 to 5 elements."""
    for seed in range(300):
        cfg = GeneratorConfig(
            seed,
            rng.randrange(1, 40),
            probe_bias=rng.choice((0.0, 0.3, 0.5, 1.0)),
            join_mix=rng.choice((0.0, 0.5, 1.0)),
        )
        b = gen_burling(cfg)
        yield b
        elems = b.ordered()
        rels = {"prec": b.prec, "adj": b.adj}
        for name, pairs in rels.items():
            if pairs:
                gone = rng.choice(sorted(pairs))
                yield BurlingSet(elems, **{**rels, name: pairs - {gone}})
            new = (rng.choice(elems), rng.choice(elems))
            yield BurlingSet(elems, **{**rels, name: pairs | {new}})
        for times in (1, 1, 2, 2):
            yield BurlingSet(elems, b.prec, _adj_mutation(rng, elems, b.adj, times))
    for _ in range(6000):
        k = rng.randint(1, 5)
        every = list(itertools.product(range(k), repeat=2))
        density = rng.choice((0.05, 0.1, 0.2, 0.3))
        prec = [p for p in every if rng.random() < density]
        adj = [p for p in every if rng.random() < density]
        yield BurlingSet(range(k), prec, adj)


def test_settled_elements_keep_every_report():
    # Settled elements skip the pairwise prec checks, and where every
    # element is settled the adj axioms are read off the cover forest; the
    # report must stay line for line what checking every pair gives, on
    # each set as built and as loaded from its dump.
    verdicts = {True: 0, False: 0}
    forest_checks = dict.fromkeys(
        ("adj-acyclic", "adj-out-chain", "adj-target-enclosed", "adj-extends-upward"), 0
    )
    for built in _reference_cases(random.Random(47)):
        for b in (built, load_burling_json(dump_burling_json(built))):
            report = verify_axioms(b)
            assert report.lines() == _per_pair_report(b).lines(), b
            verdicts[report.ok] += 1
            if len(b._cover) == len(b._order):
                for v in report.violations:
                    forest_checks[v.check] += 1
    assert verdicts[True] > 2000 and verdicts[False] > 2000, verdicts
    assert min(forest_checks.values()) > 1000, forest_checks


def test_equality_agrees_with_prec_pairs():
    # Sets whose elements are all settled compare by covers, any other pair
    # by prec's pairs; either way == is the equality of the elements and
    # both relations' pairs.  Each case is compared with a copy built from
    # its pairs and with the three cases before it, which mostly share its
    # elements.  Counted by (equal, covers compared, prec compared).
    seen = Counter()
    recent = []
    for b in _reference_cases(random.Random(61)):
        for a in (BurlingSet(b.elements, b.prec, b.adj), *recent):
            got = (a == b, b == a)
            want = (a.elements, a.prec, a.adj) == (b.elements, b.prec, b.adj)
            assert got == (want, want), (a, b)
            if a.elements == b.elements and a.adj == b.adj:
                settled = {len(a._cover) == len(a._order), len(b._cover) == len(b._order)}
                seen[want, settled == {True}, settled == {False}] += 1
        recent = [b, *recent[:2]]
    assert seen[True, True, False] > 1000 and seen[True, False, True] > 1000, seen
    assert seen[False, True, False] > 200 and seen[False, False, True] > 50, seen
    assert seen[False, False, False] > 500, seen


def _covers_if_settled(b):
    """prec's covers read off its pairs, {x: x's cover or None}, when every
    element is settled, else None.  That is when no element is its own
    prec-target and each one with targets has a target p whose targets
    are the others: by induction on the number of targets, p is then
    settled and has the most targets."""
    above = {x: set() for x in b.elements}
    for x, y in b.prec:
        above[x].add(y)
    cover = {}
    for x, ys in above.items():
        tops = [p for p in ys if ys == {p} | above[p]]
        if x in ys or ys and not tops:
            return None
        cover[x] = tops[0] if ys else None
    return cover


def _made_every_way(rng):
    """(how, set) for sets made by every constructor of the library: the
    generator, extraction, recognition, restriction, both joins, the
    constructor and both file forms, on generated sets and on variants
    with one prec or adj pair added or removed, not all settled."""
    for seed in range(40):
        cfg = GeneratorConfig(seed, rng.randrange(2, 40), rng.choice((0.3, 0.5)), 0.8)
        b = gen_burling(cfg)
        for built in (b, *itertools.islice(_reference_cases(random.Random(seed)), 1, 5)):
            yield "gen_burling" if built is b else "BurlingSet", built
            yield "pair form", load_burling_json(_pair_form(built))
            yield "cover form", load_burling_json(dump_burling_json(built))
            part = rng.sample(built.ordered(), rng.randint(1, len(built.elements)))
            yield "restrict", restrict(built, part)
            fresh = len(built.elements)
            q = min(classify_elements(built).roots, default=None)
            if q is not None:
                yield "outer_join", outer_join(built, BurlingSet({q, fresh}, (), {(q, fresh)}), q)
            probes = classify_elements(built).probes
            if probes:
                piece = BurlingSet(probes | {fresh}, (), {(p, fresh) for p in probes})
                yield "inner_join", inner_join(built, piece, {fresh})
        yield "extract_burling", extract_burling(build_frames(b))
        yield "recognize", recognize(induced_graph(b))


def test_sets_are_held_by_covers_exactly_when_every_element_is_settled():
    # However a set is made, it keeps only its covers when every element
    # is settled, and otherwise its pairs, their out-map and the covers of
    # the settled elements.  Counted by (how, held by covers).
    seen = Counter()
    for how, b in _made_every_way(random.Random(71)):
        kept = {"prec", "_out_prec"} & set(vars(b))  # before prec is read
        cover = _covers_if_settled(b)
        assert b._by_covers == (cover is not None) == (len(b._cover) == len(b._order)), (how, b)
        if b._by_covers:
            assert b._cover == cover and not kept, (how, b)
        else:
            assert kept == {"prec", "_out_prec"}, (how, b)
        seen[how, b._by_covers] += 1
    for how in ("gen_burling", "extract_burling", "recognize"):
        assert seen[how, True] == 40 and not seen[how, False], seen
    for how in ("BurlingSet", "pair form", "cover form", "restrict", "outer_join", "inner_join"):
        assert seen[how, True] > 100 and seen[how, False] > 10, seen


def test_a_valid_pair_form_file_keeps_only_its_covers():
    b = gen_burling(GeneratorConfig(seed=5, target_size=60, probe_bias=0.3, join_mix=0.8))
    loaded = load_burling_json(_pair_form(b))
    assert loaded._by_covers and not {"prec", "_out_prec"} & set(vars(loaded))
    assert loaded == load_burling_json(dump_burling_json(b))
    assert verify_axioms(loaded).ok


def test_reports_do_not_depend_on_how_a_set_is_made():
    # verify_axioms reads a set held by its covers off the forest and any
    # other set pair by pair; either way the lines are the same for the
    # set built from its pairs, read from either file form, or, when every
    # element is settled, built from its covers.
    ways = Counter()
    rng = random.Random(73)
    for seed in range(120):
        cfg = GeneratorConfig(seed, rng.randrange(1, 40), rng.choice((0.0, 0.3, 0.5)), 0.8)
        b = gen_burling(cfg)
        rels = {"prec": b.prec, "adj": b.adj}
        variants = [b]
        for name, pairs in rels.items():
            if pairs:
                variants.append(BurlingSet(b.elements, **{**rels, name: pairs - {min(pairs)}}))
            new = (rng.choice(b.ordered()), rng.choice(b.ordered()))
            variants.append(BurlingSet(b.elements, **{**rels, name: pairs | {new}}))
        for v in variants:
            named = BurlingSet(
                map(str, v.elements),
                [(str(x), str(y)) for x, y in v.prec],
                [(str(x), str(y)) for x, y in v.adj],
            )
            made = [named, load_burling_json(_pair_form(v)), load_burling_json(dump_burling_json(v))]
            if named._by_covers:
                made.append(BurlingSet._from_covers(named._order, named._cover, named.adj))
            lines = {tuple(verify_axioms(m).lines()) for m in made}
            assert len(lines) == 1, (cfg, v, lines)
            ways[len(made), lines == {("OK",)}] += 1
    assert ways[4, True] > 100 and ways[4, False] > 100 and ways[3, False] > 50, ways


def _closure_forest(b):
    """The reference for _forest, built on prec's closure: Kahn's sort over
    prec ∪ adj, then each relation's chordality check and the cover forest
    check."""
    out_prec, out_adj = core._maps(b._order, b.prec), b._out_adj
    out = {x: out_prec[x] | out_adj[x] for x in b._order}
    topo = _topo_sort(b._order, out)
    if topo is None:
        raise ContractError("combined relation has a cycle")
    parent = _chordal_forest(topo, out)
    up = _chordal_forest(topo, out_prec)
    for x, p in up.items():
        if p is not None and not out_prec[p] <= out_prec[x]:
            raise ContractError(f"prec-targets of {p!r} are not prec-targets of {x!r}")
    return topo, parent, up


def _benchmark_shaped(workload):
    """The Burling sets of the seed-1 corpus of the benchmark's frames or
    indep workload, drawn as perfbench/workloads.py draws them, with
    integer names."""
    rng = random.Random(f"{workload}:1")
    if workload == "frames":
        sizes, count = (56, 64, 72, 80, 88, 96, 104, 112), 64
        settings = ((0.5, 0.5), (0.8, 0.2), (0.3, 0.8))
    else:
        sizes, settings, count = (16, 20, 36, 44, 52), ((0.3, 0.8),), 150
    for i in range(count):
        n = sizes[i % len(sizes)]
        probe_bias, join_mix = settings[i % len(settings)]
        yield gen_burling(GeneratorConfig(rng.getrandbits(63), n, probe_bias, join_mix))
        if workload == "indep":
            for _ in range(n):
                rng.randrange(100)  # the item's weights


def _forest_or_error(forest, b):
    try:
        return forest(b)
    except ContractError as e:
        return str(e)


def test_forest_matches_the_closure_reference():
    # Where _forest orders a set, it gives the closure's (topo, parent, up),
    # and it orders every set that verify_axioms accepts.  Where it cannot,
    # the set is refused and the ContractError quotes the report's first
    # line; the closure orders 166 of these refused sets.
    verdicts = {True: 0, False: 0}
    refused_orderable = 0
    cases = itertools.chain(
        _benchmark_shaped("frames"),
        _benchmark_shaped("indep"),
        _reference_cases(random.Random(59)),
    )
    for b in cases:
        expected = _forest_or_error(_closure_forest, b)
        got = _forest_or_error(lambda b: b._forest, BurlingSet(b.elements, b.prec, b.adj))
        if isinstance(got, str):
            report = verify_axioms(b)
            assert not report.ok and got == "not a Burling set: " + report.lines()[0], b
            refused_orderable += not isinstance(expected, str)
        else:
            assert got == expected, b
        verdicts[not isinstance(got, str)] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts
    assert refused_orderable == 166


def test_forest_sorts_covers_and_adj_pairs(monkeypatch):
    # Kahn's sort in _forest relaxes one edge per cover and adj pair, not
    # one per pair of prec's closure: on the benchmark's seed-1 corpora,
    # means of 163.7 against 1036.9 (frames) and 64.9 against 374.8 (indep).
    relaxed = []

    def counting_sort(nodes, succ):
        relaxed.append(sum(len(succ[x]) for x in nodes))
        return _topo_sort(nodes, succ)

    monkeypatch.setattr(core, "_topo_sort", counting_sort)
    for workload, edges, closure in (("frames", 10477, 66361), ("indep", 9742, 56217)):
        relaxed.clear()
        sets = list(_benchmark_shaped(workload))
        for b in sets:
            b._forest
        covers = [sum(c is not None for c in b._cover.values()) for b in sets]
        assert relaxed == [k + len(b.adj) for k, b in zip(covers, sets)]
        assert sum(relaxed) == edges
        assert sum(len(b.prec) + len(b.adj) for b in sets) == closure


def test_cyclic_covers_raise():
    # a set held by covers is built only by the library; covers that form a
    # cycle are refused when prec is first read or the set is framed, not
    # walked forever
    for cover in ({0: 0}, {0: 1, 1: 0}, {0: 1, 1: 2, 2: 1, 3: None}):
        b = BurlingSet._from_covers(sorted(cover), cover, ())
        with pytest.raises(ContractError, match="the covers form a cycle"):
            b.prec
        with pytest.raises(ContractError, match="the covers form a cycle"):
            verify_axioms(b)
        with pytest.raises(ContractError, match="the covers form a cycle"):
            build_frames(b)


def _check_layout(b):
    """list(b._spans) reversed is a topological order of the covers and adj
    pairs, and each element's cone is the block of (leave - enter - 1) // 2
    positions just before it."""
    post = list(b._spans)[::-1]
    pos = {x: i for i, x in enumerate(post)}
    assert sorted(post) == b.ordered()
    cone = {x: set() for x in post}
    for x, c in b._cover.items():
        while c is not None:
            cone[c].add(x)
            assert pos[x] < pos[c], b
            c = b._cover[c]
    assert all(pos[x] < pos[y] for x, y in b.adj), b
    for i, x in enumerate(post):
        enter, leave = b._spans[x]
        k = (leave - enter - 1) // 2
        assert set(post[i - k:i]) == cone[x], b


def test_spans_lay_out_the_forest_in_topological_postorder():
    # one layout serves verify_axioms, _forest and solve_indep: a postorder
    # of the cover forest whose siblings and roots follow the Kahn sort
    rng = random.Random("spans-layout")
    for seed in range(40):
        cfg = GeneratorConfig(seed, rng.randrange(1, 70), probe_bias=0.3, join_mix=0.8)
        b = gen_burling(cfg)
        _check_layout(b)
        _check_layout(load_burling_json(dump_burling_json(b)))
    # with no topological order the layout falls back to id order, still
    # holding every element, and the report is the pairwise check's
    cover = {"a": "c", "b": "c", "c": None, "d": None, "e": "d"}
    adj = [("a", "b"), ("b", "a"), ("e", "c"), ("d", "a")]
    b = BurlingSet._from_covers(sorted(cover), cover, adj)
    assert b._kahn[1] is None
    assert b._spans == {"c": (1, 6), "a": (2, 3), "b": (4, 5), "d": (7, 10), "e": (8, 9)}
    lines = ["adj-acyclic: a, b", "adj-extends-upward: d, a, c", "adj-target-enclosed: e, c, d"]
    assert verify_axioms(b).lines() == _per_pair_report(b).lines() == lines


def test_report_lines_name_witnesses():
    rep = verify_axioms(BurlingSet("ab", adj=[("a", "b"), ("b", "a")]))
    assert not rep.ok
    assert any("adj-acyclic" in line for line in rep.lines())


def test_classification_fig3():
    cls = classify_elements(fig3())
    assert cls.roots == frozenset("a")
    assert cls.probes == frozenset("bf")
    assert cls.exposed == frozenset("abcdf")


def test_classification_singleton():
    cls = classify_elements(BurlingSet("x"))
    assert cls.roots == cls.probes == cls.exposed == frozenset("x")


def test_probe_keeps_outgoing_adj():
    # an element with only an outgoing crossing is still a probe
    b = BurlingSet("pq", adj=[("p", "q")])
    cls = classify_elements(b)
    assert "p" in cls.probes and "q" not in cls.probes


def test_induced_graph_fig3():
    g = induced_graph(fig3())
    assert g.n == 6
    edges = sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    # order a..f: crossings ab, ac, ad, df; the nested pair ce is a non-edge
    assert edges == [(0, 1), (0, 2), (0, 3), (3, 5)]


def test_restrict():
    sub = restrict(fig3(), "acde")
    assert sub.elements == frozenset("acde")
    assert sub.prec == frozenset({("e", "c")})
    assert sub.adj == frozenset({("c", "a"), ("d", "a")})
    with pytest.raises(InputError):
        restrict(fig3(), "az")


def test_outer_join():
    b1 = BurlingSet("ab", adj=[("b", "a")])  # a is the root
    b2 = BurlingSet("ac", adj=[("a", "c")])  # a exposed, crossing out to c
    joined = outer_join(b1, b2, "a")
    assert joined.elements == frozenset("abc")
    assert joined.adj == frozenset({("b", "a"), ("a", "c")})
    assert verify_axioms(joined).ok


def test_outer_join_contract_violations():
    b1 = BurlingSet("ab", adj=[("b", "a")])
    with pytest.raises(ContractError):
        outer_join(b1, BurlingSet("ac", adj=[("a", "c")]), "b")  # b not shared root
    with pytest.raises(ContractError):
        # shared elements beyond the junction
        outer_join(b1, BurlingSet("abc", adj=[("a", "c")]), "a")
    with pytest.raises(ContractError):
        # junction not exposed in the second set: a prec c
        outer_join(b1, BurlingSet("ac", prec=[("a", "c")]), "a")


def test_inner_join():
    b1 = BurlingSet("ab", adj=[("b", "a")])  # b is a probe
    b2 = BurlingSet("by", adj=[("b", "y")])
    joined = inner_join(b1, b2, {"y"})
    assert joined.elements == frozenset("aby")
    assert joined.adj == frozenset({("b", "a"), ("b", "y")})
    # every non-shared element of the first set nests under y
    assert joined.prec == frozenset({("a", "y")})
    assert verify_axioms(joined).ok


def test_inner_join_contract_violations():
    b1 = BurlingSet("ab", adj=[("b", "a")])
    with pytest.raises(ContractError):
        inner_join(b1, BurlingSet("y"), {"y"})  # no shared probes
    with pytest.raises(ContractError):
        # a is not a probe of b1 (it has an incoming crossing)
        inner_join(b1, BurlingSet("ay", adj=[("a", "y")]), {"y"})
    with pytest.raises(ContractError):
        # shared probe must cross exactly onto the enclosing part
        inner_join(b1, BurlingSet("by"), {"y"})
