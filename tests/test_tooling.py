"""Parsers, serializers, generator, oracles, SVG output, and the CLI."""

from __future__ import annotations

import json
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

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
    gen_burling,
    induced_graph,
    is_triangle_free,
    load_burling_json,
    load_frames_json,
    parse_graph_text,
    parse_weights,
    recognize,
    render_svg,
    verify_axioms,
    verify_strict,
)
from burling.cli import main
from burling.errors import InputError


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
    with pytest.raises(InputError):
        GeneratorConfig(seed=0, target_size=3, probe_bias=-0.1)
    with pytest.raises(InputError):
        GeneratorConfig(seed=0, target_size=3, join_mix=1.1)


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
        exhaustive_recognize(Graph(7, []))


def test_exhaustive_recognize_triangle():
    assert exhaustive_recognize(Graph(3, [(0, 1), (0, 2), (1, 2)])) is None


def test_exhaustive_recognize_path_witness():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    b = exhaustive_recognize(g)
    assert b is not None
    assert verify_axioms(b).ok
    assert induced_graph(b).adj == g.adj


def _connected_graphs(n):
    import itertools

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


def test_burling_json_rejections():
    for text in (
        "not json",
        "[1, 2]",
        "{}",
        '{"elements": "ab"}',
        '{"elements": ["a", "a"]}',
        '{"elements": [true]}',
        '{"elements": ["a"], "prec": [["a"]]}',
        '{"elements": ["a"], "prec": 3}',
        '{"elements": ["a", "b"], "adj": [["a", "c"]]}',
    ):
        with pytest.raises(InputError):
            load_burling_json(text)


def test_dump_burling_json_is_sorted_json():
    data = json.loads(dump_burling_json(fig3_set()))
    assert data["elements"] == list("abcdef")
    assert data["prec"] == [["e", "c"]]
    assert data["adj"][0] == ["b", "a"]


# ----------------------------------------------------------------- frames json


def test_frames_json_round_trip():
    fam = build_frames(fig3_set())
    again = load_frames_json(dump_frames_json(fam))
    assert again == fam


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
    for extra in ([], ["--linear"]):
        assert main(["frames", setfile] + extra) == 0
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


def test_cli_gen(tmp_path, capsys):
    assert main(["gen", "--n", "9", "--seed", "3"]) == 0
    b = load_burling_json(capsys.readouterr().out)
    assert len(b.elements) == 9
    assert verify_axioms(b).ok
    assert main(["gen", "--n", "9", "--seed", "3", "--probe-bias", "1.5"]) == 2


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
