"""The generator: the join-based construction it stands for, pinned
outputs, and a time and memory budget for a large set."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from burling import (
    BurlingSet,
    GeneratorConfig,
    build_frames,
    dump_burling_json,
    extract_burling,
    gen_burling,
    inner_join,
    load_burling_json,
    outer_join,
    solve_indep,
    verify_axioms,
    vertical_order,
)
from burling.generator import SplitMix64, _pick
from burling.io import _pair_form


def _join_reference(cfg: GeneratorConfig) -> BurlingSet:
    """gen_burling written as Burling's sequence of joins: the same moves
    and the same random stream, but every step builds a whole new set
    through inner_join or outer_join, so their contract checks run on
    every step."""
    rng = SplitMix64(cfg.seed)
    attach_cut = int(cfg.probe_bias * (1 << 64))
    inner_cut = int(cfg.join_mix * (1 << 64))

    b = BurlingSet({0})
    probes = {0}
    roots = {0}
    exposed = {0}
    k = 1

    while k < cfg.target_size:
        fresh = k
        if rng.next() < attach_cut:
            q = _pick(rng, exposed)
            b = BurlingSet(b.elements | {fresh}, b.prec, b.adj | {(fresh, q)})
            probes.discard(q)
            probes.add(fresh)
            exposed.add(fresh)
        elif rng.next() < inner_cut:
            chosen = {p for p in sorted(probes) if rng.coin()}
            if not chosen:
                chosen = {_pick(rng, probes)}
            piece = BurlingSet(chosen | {fresh}, (), {(p, fresh) for p in chosen})
            b = inner_join(b, piece, {fresh})
            probes = set(chosen)
            roots = {fresh}
            exposed = set(chosen) | {fresh}
        else:
            q = _pick(rng, roots)
            piece = BurlingSet({q, fresh}, (), {(q, fresh)})
            b = outer_join(b, piece, q)
            roots.discard(q)
            roots.add(fresh)
            exposed.add(fresh)
        k += 1
    return b


# (probe_bias, join_mix): the defaults, the benchmark's settings and the
# extremes, where one kind of move never or always happens
_SETTINGS = ((0.5, 0.5), (0.8, 0.2), (0.3, 0.8), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("probe_bias, join_mix", _SETTINGS)
def test_matches_the_join_reference(probe_bias, join_mix):
    # 40 seeds x 6 sizes per setting, 1440 configurations in all;
    # gen_burling does not verify its output, so the axioms are checked here
    for seed, size in itertools.product(range(40), (1, 2, 5, 24, 48, 112)):
        cfg = GeneratorConfig(seed, size, probe_bias, join_mix)
        b = gen_burling(cfg)
        assert verify_axioms(b).ok, cfg
        assert b == _join_reference(cfg), cfg


def _one_cover_changed(b: BurlingSet) -> BurlingSet:
    """b, held by its covers, with the first cover dropped, or with its
    first element put under its second when it has no cover."""
    cover = dict(b._cover)
    x = next((x for x, c in cover.items() if c is not None), None)
    if x is not None:
        cover[x] = None
    else:
        cover[b._order[0]] = b._order[1]
    return BurlingSet._from_covers(b._order, cover, b.adj)


@pytest.mark.parametrize("probe_bias, join_mix", _SETTINGS)
def test_sets_held_by_covers_match_their_pairs(probe_bias, join_mix):
    # The generator and extract_burling hold prec by its covers.  Such a set
    # behaves as the set built from its pairs, and two of them compare by
    # their covers, with no closure built, not even when the sets are
    # checked, framed and solved.
    for seed, size in itertools.product(range(8), (1, 2, 5, 24, 48, 112)):
        cfg = GeneratorConfig(seed, size, probe_bias, join_mix)
        b = gen_burling(cfg)
        assert verify_axioms(b).ok, cfg
        e = extract_burling(build_frames(b))
        assert verify_axioms(e).ok, cfg
        build_frames(e)
        vertical_order(b)
        solve_indep(b, {x: x % 7 for x in b.elements})
        held = (b, e)
        assert b == e and e == b, cfg
        texts = [repr(h) for h in held]
        changed = _one_cover_changed(b) if size > 1 else None
        if changed is not None:
            verify_axioms(changed)
            assert b != changed and changed != e, cfg
        assert not any("prec" in vars(h) for h in (*held, changed) if h is not None), cfg
        for h, text in zip(held, texts):
            ref = BurlingSet(h.elements, h.prec, h.adj)
            assert h == ref and ref == h, cfg
            assert (hash(h), text) == (hash(ref), repr(ref)), cfg
            assert dump_burling_json(h) == dump_burling_json(ref), cfg
            assert verify_axioms(h) == verify_axioms(ref), cfg
            if changed is not None:
                assert ref != changed and changed != ref, cfg


@pytest.mark.parametrize("probe_bias, join_mix", _SETTINGS)
def test_loaded_sets_build_no_closure(probe_bias, join_mix):
    # load_burling_json holds prec by the covers of a file in the cover
    # form and keeps it as its out-map from one in the pair form: either
    # way a loaded set is checked, framed and solved with no prec pairs
    # built, and it behaves as the set built from its pairs.
    for seed, size, dump in itertools.product(
        range(4), (1, 2, 5, 24, 112), (dump_burling_json, _pair_form)
    ):
        cfg = GeneratorConfig(seed, size, probe_bias, join_mix)
        b = load_burling_json(dump(gen_burling(cfg)))
        report = verify_axioms(b)
        assert report.ok, cfg
        build_frames(b)
        solve_indep(b, dict.fromkeys(b.elements, 1))
        text = repr(b)
        assert "prec" not in vars(b), cfg
        ref = BurlingSet(b.elements, b.prec, b.adj)
        assert b == ref and ref == b, cfg
        assert (hash(b), text) == (hash(ref), repr(ref)), cfg
        assert dump_burling_json(b) == dump_burling_json(ref), cfg
        assert report == verify_axioms(ref), cfg


def test_builds_one_set_per_call(monkeypatch):
    # no per-step rebuild: each join would build a set of its own.  Both
    # constructors are counted: the generator's set is held by its covers,
    # built by BurlingSet._from_covers, which bypasses __init__
    calls = []
    init, from_covers = BurlingSet.__init__, BurlingSet._from_covers
    monkeypatch.setattr(BurlingSet, "__init__", lambda self, *a: calls.append(a) or init(self, *a))
    monkeypatch.setattr(BurlingSet, "_from_covers", lambda *a: calls.append(a) or from_covers(*a))
    gen_burling(GeneratorConfig(seed=3, target_size=60))
    assert len(calls) == 1


# SHA-256 of the pair form of gen_burling(cfg), recorded with the
# join-based generator, which built a new set at every step, when
# dump_burling_json wrote every set in the pair form
PINS = (
    (GeneratorConfig(1, 200), "a8db738587d01d2852a5615a544e0865ab6dd51306c41672449875f3a97825a9"),
    (
        GeneratorConfig(7, 112, probe_bias=0.3, join_mix=0.8),
        "1c873626746240ba25aab2f3d010f06c9f18a257bc72f234aec85f3363c099a8",
    ),
    (
        GeneratorConfig(1009, 64, probe_bias=0.8, join_mix=0.2),
        "42173a796b21cbcc79b8314d7f7899c09d96f3951eb36f996504486b59e23448",
    ),
)


@pytest.mark.parametrize("cfg, digest", PINS)
def test_output_is_pinned(cfg, digest):
    b = gen_burling(cfg)
    text = _pair_form(b)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the cover form that dump_burling_json writes states the same set
    assert load_burling_json(dump_burling_json(b)) == load_burling_json(text)


_GEN_CHILD = """
from burling import GeneratorConfig, gen_burling
b = gen_burling(GeneratorConfig(seed=1, target_size=1000))
print(len(b.elements), peak_kib())
"""


def test_large_set_within_memory_and_time_budget(run_child):
    (size, peak_kib), elapsed = run_child(_GEN_CHILD)
    assert size == "1000"
    assert int(peak_kib) < 150 * 1024
    assert elapsed < 10.0


_CAP_CHILD = """
from burling import GeneratorConfig, gen_burling
b = gen_burling(GeneratorConfig(seed=1, target_size=2000, probe_bias=0, join_mix=1))
generated_kib = peak_kib()
print(len(b.elements), generated_kib, len(b.prec), peak_kib())
"""


def test_largest_set_within_memory_and_time_budget(run_child):
    # At the size cap, with every move an inner join, prec holds nearly
    # n²/2 pairs: the largest set the generator can be asked for.  The set
    # is held by its covers, and its prec is built when first read.  On a
    # 2-vCPU machine, about 17 MB at the first peak_kib(), and 1.1 s and
    # 220 MB in all.
    (size, generated_kib, pairs, peak_kib), elapsed = run_child(_CAP_CHILD)
    assert (size, pairs) == ("2000", "1997001")
    assert int(generated_kib) < 50 * 1024
    assert int(peak_kib) < 450 * 1024
    assert elapsed < 10.0
