"""Frame geometry, coordinate construction, and extraction."""

from __future__ import annotations

import random
import re

import pytest

from burling import (
    BurlingSet,
    Frame,
    FrameFamily,
    GeneratorConfig,
    Graph,
    build_frames,
    extract_burling,
    frames_intersect,
    gen_burling,
    horizontal_constraints,
    horizontal_order,
    induced_graph,
    intersection_graph,
    verify_axioms,
    verify_strict,
    vertical_order,
)
from burling import frames as frames_module
from burling.core import VerificationReport, Violation, _topo_sort
from burling.errors import ContractError, InputError
from burling.frames import _inside, _scan


def fig3_set():
    return BurlingSet(
        "abcdef",
        prec=[("e", "c")],
        adj=[("b", "a"), ("c", "a"), ("d", "a"), ("f", "d")],
    )


def fig3_family():
    return FrameFamily(
        [
            Frame("a", 0, 12, 0, 28),
            Frame("b", 10, 20, 2, 6),
            Frame("c", 10, 20, 8, 16),
            Frame("d", 10, 20, 18, 26),
            Frame("e", 15, 18, 10, 14),
            Frame("f", 18, 24, 20, 24),
        ]
    )


def test_frame_validation():
    Frame("x", 0, 1, 0, 1)
    with pytest.raises(InputError):
        Frame("x", 1, 1, 0, 2)
    with pytest.raises(InputError):
        Frame("x", 0, 1, 3, 2)
    with pytest.raises(InputError):
        Frame("x", 0, 1, 0, 1.5)


def test_family_rejects_duplicate_ids():
    with pytest.raises(InputError, match="^duplicate frame id 'x'$"):
        FrameFamily([Frame("x", 0, 1, 0, 1), Frame("x", 2, 3, 2, 3)])
    # the smallest duplicated id is named
    frames = [Frame(i, 3 * k, 3 * k + 1, 0, 1) for k, i in enumerate("babca")]
    with pytest.raises(InputError, match="^duplicate frame id 'a'$"):
        FrameFamily(frames)


def test_family_frames_is_read_only():
    # Assigning would skip the id and general-position checks and leave
    # the family's kept sweep stale.
    fam = fig3_family()
    with pytest.raises(AttributeError):
        fam.frames = ()
    with pytest.raises(AttributeError):
        fam.other = 1
    assert fam == fig3_family()


def test_family_rejects_ids_that_do_not_compare():
    with pytest.raises(InputError, match="frame ids must be mutually comparable"):
        FrameFamily([Frame(1, 0, 1, 0, 1), Frame("a", 2, 3, 2, 3)])


def test_family_rejects_corner_on_frame():
    # corner (4, 2) of the second frame lies on the right edge of the first
    with pytest.raises(InputError, match=r"^corner \(4, 2\) of frame 'y' lies on frame 'x'$"):
        FrameFamily([Frame("x", 0, 4, 0, 4), Frame("y", 4, 8, 2, 6)])
    # sharing a full corner point counts too
    with pytest.raises(InputError, match=r"^corner \(4, 4\) of frame 'y' lies on frame 'x'$"):
        FrameFamily([Frame("x", 0, 4, 0, 4), Frame("y", 4, 8, 4, 8)])
    # x = 4 holds three sides; only the upper two meet, at (4, 5)
    with pytest.raises(InputError, match=r"^corner \(4, 5\) of frame 'z' lies on frame 'y'$"):
        FrameFamily([Frame("x", 0, 4, 0, 2), Frame("y", 4, 8, 3, 5), Frame("z", 2, 4, 5, 9)])


def _corners(f: Frame):
    return ((f.l, f.b), (f.l, f.t), (f.r, f.b), (f.r, f.t))


def _point_on_frame(x, y, f: Frame) -> bool:
    on_vertical = x in (f.l, f.r) and f.b <= y <= f.t
    on_horizontal = y in (f.b, f.t) and f.l <= x <= f.r
    return on_vertical or on_horizontal


def _in_general_position(frames) -> bool:
    """The definition, corner by corner: no corner of one frame lies on
    another frame."""
    return not any(
        _point_on_frame(x, y, g)
        for f in frames
        for g in frames
        if g is not f
        for x, y in _corners(f)
    )


def test_general_position_matches_corner_by_corner_reference():
    # Coordinates from 0..5 make shared lines, touching sides and shared
    # corners common, so both verdicts occur often.
    rng = random.Random(5)
    accepted = rejected = 0
    for _ in range(20000):
        frames = []
        for i in range(rng.randint(1, 6)):
            l, r = sorted(rng.sample(range(6), 2))
            b, t = sorted(rng.sample(range(6), 2))
            frames.append(Frame(i, l, r, b, t))
        try:
            fam = FrameFamily(frames)
        except InputError as e:
            rejected += 1
            assert not _in_general_position(frames), frames
            m = re.fullmatch(r"corner \((\d+), (\d+)\) of frame (\d+) lies on frame (\d+)", str(e))
            assert m, str(e)
            x, y, a, c = map(int, m.groups())
            assert (x, y) in _corners(frames[a])
            assert c != a and _point_on_frame(x, y, frames[c])
        else:
            accepted += 1
            assert _in_general_position(frames), frames
            assert list(fam) == frames
    assert accepted > 2000 and rejected > 2000


def test_family_accepts_shared_coordinate_values():
    # equal left or right values are fine as long as no corner touches
    fam = fig3_family()
    assert len(fam) == 6
    assert [f.id for f in fam] == list("abcdef")


def test_frames_intersect_cases():
    a = Frame("a", 0, 4, 0, 6)
    b = Frame("b", 1, 6, 1, 5)  # crosses out of a
    c = Frame("c", 1, 3, 1, 5)  # nested in a
    d = Frame("d", 10, 11, 0, 1)  # far away
    assert frames_intersect(a, b) and frames_intersect(b, a)
    assert not frames_intersect(a, c)
    assert not frames_intersect(a, d)
    # diagonal overlap: boundaries cross even though neither nests
    e = Frame("e", 2, 8, 3, 9)
    assert frames_intersect(Frame("f", 0, 4, 0, 5), e)


def test_verify_strict_crossing_pair():
    fam = FrameFamily([Frame(0, 0, 4, 0, 6), Frame(1, 1, 6, 1, 5)])
    assert verify_strict(fam).ok


def test_verify_strict_pair_violation():
    fam = FrameFamily([Frame(0, 0, 4, 0, 4), Frame(1, 1, 5, 1, 5)])
    rep = verify_strict(fam)
    assert not rep.ok
    assert rep.violations[0].check == "pair-pattern"


def test_verify_strict_triple_violation():
    fam = FrameFamily(
        [Frame(0, 0, 4, 0, 6), Frame(1, 1, 6, 1, 5), Frame(2, 2, 3, 2, 4)]
    )
    rep = verify_strict(fam)
    assert [v.check for v in rep.violations] == ["triple-pattern"]
    assert rep.violations[0].witness == (0, 1, 2)


def test_horizontal_order_crossing_pair():
    b = BurlingSet("xy", adj=[("x", "y")])
    assert horizontal_order(b) == {"x": (2, 4), "y": (1, 3)}


def test_horizontal_order_nested_pair():
    b = BurlingSet("xy", prec=[("x", "y")])
    assert horizontal_order(b) == {"x": (2, 3), "y": (1, 4)}


def test_vertical_order_crossing_pair():
    b = BurlingSet("xy", adj=[("x", "y")])
    assert vertical_order(b) == {"x": (2, 3), "y": (1, 4)}


def test_vertical_order_star():
    b = BurlingSet(["p1", "p2", "r"], adj=[("p1", "r"), ("p2", "r")])
    assert vertical_order(b) == {"r": (1, 6), "p1": (2, 3), "p2": (4, 5)}


def test_build_frames_singleton():
    fam = build_frames(BurlingSet("x"))
    f = fam.frames[0]
    assert (f.l, f.r, f.b, f.t) == (1, 2, 1, 2)


def test_build_frames_crossing_pair():
    fam = build_frames(BurlingSet("xy", adj=[("x", "y")]))
    coords = {f.id: (f.l, f.r, f.b, f.t) for f in fam}
    assert coords == {"y": (1, 3, 1, 4), "x": (2, 4, 2, 3)}


def test_build_frames_nested_pair():
    fam = build_frames(BurlingSet("xy", prec=[("x", "y")]))
    coords = {f.id: (f.l, f.r, f.b, f.t) for f in fam}
    assert coords == {"y": (1, 4, 1, 4), "x": (2, 3, 2, 3)}


def test_extract_fig3_family():
    assert extract_burling(fig3_family()) == fig3_set()


def test_extract_rejects_non_strict():
    fam = FrameFamily([Frame(0, 0, 4, 0, 4), Frame(1, 1, 5, 1, 5)])
    with pytest.raises(InputError):
        extract_burling(fam)


def _random_strict_family(rng) -> FrameFamily:
    """Up to 8 frames with coordinates in 0..23, each kept only if the
    family stays in general position and strict after 30 tries."""
    frames = []
    for i in range(rng.randint(1, 8)):
        for _ in range(30):
            l, r = sorted(rng.sample(range(24), 2))
            b, t = sorted(rng.sample(range(24), 2))
            try:
                fam = FrameFamily(frames + [Frame(i, l, r, b, t)])
            except InputError:
                continue
            if verify_strict(fam).ok:
                frames = list(fam)
                break
    return FrameFamily(frames)


def test_extracted_sets_pass_the_axioms():
    # extract_burling does not verify what it returns: strict families and
    # Burling sets describe the same graphs.  Families drawn at random, not
    # by build_frames, check that here.
    rng = random.Random(71)
    crossing = 0
    for _ in range(600):
        b = extract_burling(_random_strict_family(rng))
        assert verify_axioms(b).ok, b
        assert extract_burling(build_frames(b)) == b
        crossing += bool(b.adj)
    assert crossing > 150


def _pair_loop_scan(fs):
    """_scan as a loop over all pairs of frames fs, in index order: the
    report, and the id pairs (f, g) where g escapes f and where f sits
    inside g."""
    viols = []
    crossings = []
    nestings = set()
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            if f.r < g.l or g.r < f.l or f.t < g.b or g.t < f.b:
                continue
            if _inside(f, g):
                nestings.add((f.id, g.id))
            elif _inside(g, f):
                nestings.add((g.id, f.id))
            elif f.l < g.l < f.r < g.r and f.b < g.b < g.t < f.t:
                crossings.append((f, g))
            elif g.l < f.l < g.r < f.r and g.b < f.b < f.t < g.t:
                crossings.append((g, f))
            else:
                viols.append(Violation("pair-pattern", (f.id, g.id)))
    for f, g in crossings:
        for h in fs:
            if h.id == f.id or h.id == g.id:
                continue
            if g.l < h.l < f.r and g.b < h.b and h.t < g.t:
                viols.append(Violation("triple-pattern", (f.id, g.id, h.id)))
    crossings = {(f.id, g.id) for f, g in crossings}
    return VerificationReport(tuple(viols)), crossings, nestings


def _extracted(fam):
    try:
        return extract_burling(fam)
    except InputError as e:
        return str(e)


def _reference_extracted(fam):
    report, crossings, nestings = _pair_loop_scan(fam.frames)
    if not report.ok:
        return f"family is not strict: {report.lines()[0]}"
    return BurlingSet(
        (f.id for f in fam), nestings, ((g, f) for f, g in crossings)
    )


def _random_families(rng, count):
    """count families of 1 to 6 frames with coordinates in 0..11, in general
    position.  Every other family draws its coordinates without repeats, so
    no two sides share a line; the others draw them freely, skipping those
    that Frame or FrameFamily rejects, so shared lines are common."""
    while count:
        k = rng.randint(1, 6)
        if count % 2:
            xs, ys = rng.sample(range(12), 2 * k), rng.sample(range(12), 2 * k)
        else:
            xs, ys = ([rng.randrange(12) for _ in range(2 * k)] for _ in "xy")
        try:
            fam = FrameFamily(
                Frame(i, *sorted(xs[2 * i:2 * i + 2]), *sorted(ys[2 * i:2 * i + 2]))
                for i in range(k)
            )
        except InputError:
            continue
        count -= 1
        yield fam


def _ancestor_pairs(covers) -> set:
    """The pairs (f, a) with a reached from f by following covers."""
    cover = dict(covers)
    pairs = set()
    for f in cover:
        a = cover[f]
        while a is not None:
            pairs.add((f, a))
            a = cover.get(a)
    return pairs


def test_sweep_matches_the_pair_loop():
    rng = random.Random(83)
    families = list(_random_families(rng, 8000))
    for seed in range(150):
        cfg = GeneratorConfig(
            seed, rng.randrange(1, 60), probe_bias=rng.choice((0.0, 0.3, 0.5, 1.0))
        )
        families.append(build_frames(gen_burling(cfg)))
    not_strict = 0
    for fam in families:
        report, crossings, covers, _ = _scan(fam.frames)
        expected = _pair_loop_scan(fam.frames)
        assert report.lines() == expected[0].lines(), fam.frames
        assert set(crossings) == expected[1]
        # Each frame's cover is its holder with the rightmost left side, and
        # in a strict family the covers' ancestor relation is nesting.
        left = {f.id: f.l for f in fam}
        holders = {}
        for f, g in expected[2]:
            holders.setdefault(f, []).append(g)
        assert dict(covers) == {f: max(gs, key=left.get) for f, gs in holders.items()}
        if report.ok:
            assert _ancestor_pairs(covers) == expected[2]
        assert verify_strict(fam) == report
        assert _extracted(fam) == _reference_extracted(fam)
        not_strict += not report.ok
    assert not_strict > 1000, not_strict
    assert len(families) - not_strict > 1000


def test_family_keeps_one_sweep(monkeypatch):
    # verify_strict, extract_burling and intersection_graph read the
    # family's one sweep, counted as the relation index's sorts are.
    scans = []

    def counting_scan(fs):
        scans.append(len(fs))
        return _scan(fs)

    monkeypatch.setattr(frames_module, "_scan", counting_scan)
    b = gen_burling(GeneratorConfig(seed=3, target_size=60))
    fam = build_frames(b)
    assert scans == []
    assert verify_strict(fam).ok
    assert extract_burling(fam) == b
    assert intersection_graph(fam) == induced_graph(b)
    assert scans == [60]


def test_sweep_keeps_covers_not_nestings():
    # What a family keeps is linear in its frames plus its crossings: one
    # cover per held frame, where the nestings number prec's closure.
    covers = nestings = 0
    for seed in range(20):
        b = gen_burling(GeneratorConfig(seed, 100, probe_bias=0.3, join_mix=0.8))
        report, crossings, held, meets = _scan(build_frames(b).frames)
        assert report.ok and not meets
        assert len(crossings) == len(b.adj)
        assert dict(held) == {x: c for x, c in b._cover.items() if c is not None}
        covers += len(held)
        nestings += len(b.prec)
    assert (covers, nestings) == (1942, 56131)


def test_intersection_graph_follows_frames_intersect():
    rng = random.Random(89)
    for fam in _random_families(rng, 2000):
        fs = fam.frames
        expected = [
            (i, j)
            for i in range(len(fs))
            for j in range(i + 1, len(fs))
            if frames_intersect(fs[i], fs[j])
        ]
        assert intersection_graph(fam) == Graph(len(fs), expected)


def test_intersection_graph_fig3():
    g = intersection_graph(fig3_family())
    edges = sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
    assert edges == [(0, 1), (0, 2), (0, 3), (3, 5)]
    assert g.adj == induced_graph(fig3_set()).adj


def test_round_trip_both_modes():
    b = fig3_set()
    fam = build_frames(b)
    assert verify_strict(fam).ok
    assert extract_burling(fam) == b
    # coordinates stay in the compact 1..2|S| band per axis
    for f in fam:
        assert 1 <= f.l < f.r <= 2 * 6
        assert 1 <= f.b < f.t <= 2 * 6


def test_linear_mode_constraint_budget():
    b = fig3_set()
    cons = horizontal_constraints(b)
    assert set(cons) <= _closure_constraints(b)[1]
    r = len(b.prec) + len(b.adj)
    assert len(cons) <= 6 * (len(b.elements) + r)


def test_horizontal_cycle_is_contract_error():
    bad = BurlingSet("xy", prec=[("x", "y"), ("y", "x")])
    with pytest.raises(ContractError):
        horizontal_order(bad)


def test_vertical_multi_parent_is_contract_error():
    bad = BurlingSet("xyz", prec=[("x", "y"), ("x", "z")])
    with pytest.raises(ContractError):
        vertical_order(bad)


def test_vertical_targets_not_a_chain_is_contract_error():
    # Not a valid set: element 5's targets are 1, 2 and 3, and 2 lies directly
    # below the other two, but no pair relates 1 and 3: no chain.  The
    # relation index cannot order it and quotes the first violation
    # verify_axioms reports: 1 crosses out of 0, which lies inside 3, and 1
    # is neither adj nor prec to 3.
    bad = BurlingSet(
        range(6),
        prec=[(0, 3), (2, 0), (2, 3), (5, 1)],
        adj=[(1, 0), (2, 1), (5, 2), (5, 3)],
    )
    with pytest.raises(ContractError, match="^not a Burling set: adj-extends-upward: 1, 0, 3$"):
        vertical_order(bad)


def test_linear_mode_unordered_targets_is_contract_error():
    # Not a valid set: y and z are adj-targets of x with no pair between
    # them, so the combined relation is not chordal, and the relation index
    # quotes the violation verify_axioms reports.
    bad = BurlingSet("wxyz", adj=[("w", "x"), ("x", "y"), ("x", "z")])
    with pytest.raises(ContractError, match="^not a Burling set: adj-out-chain: x, y, z$"):
        horizontal_constraints(bad)


def _closure_constraints(b):
    """Reference constraint system on prec's transitive closure: three
    constraints for every prec pair and every adj pair, and the escape rule
    for every element y related to z, from maps built from the pairs."""
    order = sorted(b.elements)
    idx = {x: i for i, x in enumerate(order)}
    out_adj = {x: set() for x in order}
    related_in = {x: set() for x in order}
    cons = {(2 * i, 2 * i + 1) for i in range(len(order))}
    for a, c in b.prec:
        related_in[c].add(a)
        cons.add((2 * idx[c], 2 * idx[a]))
        cons.add((2 * idx[a], 2 * idx[c] + 1))
        cons.add((2 * idx[a] + 1, 2 * idx[c] + 1))
    for a, c in b.adj:
        out_adj[a].add(c)
        related_in[c].add(a)
        cons.add((2 * idx[c], 2 * idx[a]))
        cons.add((2 * idx[a], 2 * idx[c] + 1))
        cons.add((2 * idx[c] + 1, 2 * idx[a] + 1))
    for z in order:
        for x in out_adj[z]:
            for y in related_in[z]:
                cons.add((2 * idx[x] + 1, 2 * idx[y]))
    return order, cons


def _closure_order(b):
    """Smallest-first sort of the reference system, as horizontal_order's
    map from element to (left, right)."""
    order, cons = _closure_constraints(b)
    succ = [[] for _ in range(2 * len(order))]
    for a, c in cons:
        succ[a].append(c)
    values = {v: value for value, v in enumerate(_topo_sort(range(len(succ)), succ), 1)}
    return {x: (values[2 * i], values[2 * i + 1]) for i, x in enumerate(order)}


def test_both_constraint_modes_give_the_same_order():
    # The smallest-first Kahn order depends only on the transitive closure
    # of the constraints.  The escape rule stated for each element's
    # prec-greatest adj-target implies it for the others, and the
    # constraints on prec's cover forest imply those on its closure, so the
    # system gives the order of the closure system.
    rng = random.Random("modes")
    for seed in range(150):
        cfg = GeneratorConfig(
            seed,
            rng.randrange(1, 90),
            probe_bias=rng.choice((0.0, 0.3, 0.5, 1.0)),
            join_mix=rng.choice((0.0, 0.5, 0.8, 1.0)),
        )
        b = gen_burling(cfg)
        expected = _closure_order(b)
        assert horizontal_order(b) == expected


_FRAMES_CHILD = """
from burling import (
    Frame, FrameFamily, GeneratorConfig, build_frames, dump_burling_json,
    dump_frames_json, extract_burling, gen_burling, load_burling_json,
    load_frames_json, verify_strict,
)
b = gen_burling(GeneratorConfig(seed=1, target_size=1000))
fam = load_frames_json(dump_frames_json(build_frames(b)))
# The JSON round trip turns ids into strings.
round_trip = verify_strict(fam).ok and (
    extract_burling(fam) == load_burling_json(dump_burling_json(b))
)
# A 200 x 100 grid of disjoint frames: every line carries 100 or 200 sides.
grid = FrameFamily(
    Frame(i, 3 * (i % 200), 3 * (i % 200) + 2, 3 * (i // 200), 3 * (i // 200) + 2)
    for i in range(20000)
)
print(
    round_trip, len(grid), verify_strict(grid).ok,
    peak_kib(),
)
"""


def test_large_families_within_memory_and_time_budget(run_child):
    (round_trip, size, grid_strict, peak_kib), elapsed = run_child(_FRAMES_CHILD)
    assert round_trip == "True"
    assert size == "20000"
    assert grid_strict == "True"
    assert int(peak_kib) < 200 * 1024
    assert elapsed < 10.0


_FRAMES_SCALE_CHILD = """
import time
from burling import GeneratorConfig, build_frames, gen_burling
b = gen_burling(GeneratorConfig(seed=1, target_size=2000))
start = time.perf_counter()
build_frames(b)
elapsed = time.perf_counter() - start
print(len(b.elements), elapsed, "prec" in vars(b), peak_kib())
"""


def test_frames_at_n_2000_within_memory_and_time_budget(run_child):
    # The set's 2000 elements carry about 514 000 prec pairs but under 2000
    # covers, and the constraints and checks follow the covers, so the set,
    # held by its covers, never builds its prec.  Only the build_frames call
    # is timed.
    (size, elapsed, built, peak_kib), _ = run_child(_FRAMES_SCALE_CHILD)
    assert size == "2000"
    assert built == "False"
    assert float(elapsed) < 0.5
    assert int(peak_kib) < 60 * 1024


_EXTRACT_SCALE_CHILD = """
import time
import tracemalloc
from burling import FrameFamily, GeneratorConfig, build_frames, extract_burling, gen_burling
fam = build_frames(gen_burling(GeneratorConfig(seed=1, target_size=2000)))
again = FrameFamily(fam.frames)
start = time.perf_counter()
b = extract_burling(fam)
elapsed = time.perf_counter() - start
tracemalloc.start()
b = extract_burling(again)
print(len(b.elements), elapsed, tracemalloc.get_traced_memory()[1])
"""


def test_extract_at_n_2000_within_memory_and_time_budget(run_child):
    # extract_burling holds the set by the sweep's covers, about 2000 of
    # them, and builds none of the 513 979 pairs of prec's closure.  The
    # first call is timed, on the family's first sweep; the second, on an
    # equal family, sweeps again under tracemalloc, whose peak counts every
    # byte the call allocates.  About 0.11 s and 0.8 MB on a 2-vCPU machine.
    (size, elapsed, peak_bytes), _ = run_child(_EXTRACT_SCALE_CHILD)
    assert size == "2000"
    assert float(elapsed) < 0.2
    assert int(peak_bytes) < 5 * 1024 * 1024


_STRICT_SCALE_CHILD = """
import time
from burling import (
    GeneratorConfig, build_frames, extract_burling, gen_burling, verify_axioms,
    verify_strict,
)
b = gen_burling(GeneratorConfig(seed=1, target_size=2000))
start = time.perf_counter()
ok = verify_axioms(b).ok
fam = build_frames(b)
ok = ok and verify_strict(fam).ok and extract_burling(fam) == b
elapsed = time.perf_counter() - start
print(ok, elapsed, "prec" in vars(b), peak_kib())
"""


def test_frames_request_at_n_2000_within_memory_and_time_budget(run_child):
    # A frames request on the set of the test above: the axioms are checked
    # on the cover forest, so prec is never built, and strictness by a
    # sweep in x, not per pair of frames.  Generation is not timed.  About
    # 0.1 s and 21 MB on a 2-vCPU machine (0.6-0.9 s and 104 MB when
    # verify_axioms read prec's closure).
    (ok, elapsed, built, peak_kib), _ = run_child(_STRICT_SCALE_CHILD)
    assert ok == "True"
    assert built == "False"
    assert float(elapsed) < 0.5
    assert int(peak_kib) < 40 * 1024
