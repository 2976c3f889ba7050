"""Recorded recognition runs that any rewrite of the dynamic program must
reproduce exactly.

The values were recorded with the dynamic program run on the graph's
2-core only, the peeled vertices attached back as probes, unrooted
subproblems trying their roots by degree in N[S], highest first and ties in
ascending vertex order, and every rooted subproblem refuted by its shape
before any child is demanded (a refuted one still counts).  On the first
twelve accepted runs the whole graph took 708 subproblems in that root
order and 2 534 in ascending vertex order alone, against 299 on the core
and 273 with the shape checks; on the rejected runs the whole graph took
4 370, against 1 576 and 1 417.  Two of the accepted graphs (seeds 100 and
106) are forests, so their core is empty and only the attaching is pinned;
seeds 112 and 117 have the shapes of 100 and 105 and a non-empty core.  For
each generated Burling graph (the two generator settings of the benchmark's
accepting workload, under a seeded vertex relabelling) the test pins the
number of unrooted and rooted subproblems the run creates and the SHA-256
of the witness's JSON in the pair form, which dump_burling_json wrote for
every set when the pins were recorded; for graphs of the benchmark's reject pool it pins
the verdict and the two counts.  Equal counts mean the rewrite explores the
same subproblems; equal hashes mean it builds the same witness.

Each case keeps the test id of its first recording, made in ascending
vertex order: the id lists the case's parameters with that recording's
counts (and witness hash), so re-recording a pin does not rename its test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from burling import (
    GeneratorConfig,
    Graph,
    dump_burling_json,
    gen_burling,
    induced_graph,
    load_burling_json,
    recognize_with_stats,
)
from burling.io import _pair_form

REJECT_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reject_pool.json"

# (seed, vertices, probe_bias, join_mix, unrooted, rooted, witness SHA-256)
ACCEPTED = (
    (100, 24, 0.8, 0.2, 0, 0, "117f92ea0a62e429da858a2c396e1f31c3e3cc46586a0e2a4708267409e9fde1"),
    (101, 32, 0.5, 0.5, 13, 77, "e707521b3036f33075a3809811c897da1080c60e0decd944e083f600ac1be30e"),
    (102, 32, 0.8, 0.2, 2, 4, "169e54af8779c522c0bea4aba4cc5457281cd5b9e831c3871f8a8c30c2f032fd"),
    (103, 40, 0.5, 0.5, 7, 17, "c360cb694e4070475d3b7336fad7ebb323350a96092f274dd1f36b51e40f6eef"),
    (104, 40, 0.8, 0.2, 2, 7, "2a44f007876d4b939ea823e0165a5574d3f657523a2f63529e93ad775627e8a0"),
    (105, 48, 0.5, 0.5, 9, 29, "3e9e74219c0d3ba965abe25385e830823c6f073be1cb69f94db7777bce251306"),
    (106, 24, 0.8, 0.2, 0, 0, "db10d500e2353be6a11cd7fbab05c2082a1cc2212db12cd98d28d95278c6d487"),
    (107, 32, 0.5, 0.5, 2, 3, "3177563bf8e2da3275b2c3d8053bde181d7841876f0080a0d4063dc9490e79d1"),
    (108, 32, 0.8, 0.2, 2, 4, "5b6708486390be947fba470f2a1523c682b72f5a697458d6c5729f2e84ac7ce7"),
    (109, 40, 0.5, 0.5, 10, 39, "efef316c9b9a2830644b1c4e4971561cca5dea1979841b8a0a0eacbb3127d4bb"),
    (110, 40, 0.8, 0.2, 2, 14, "5cbc2d8c18cec6ae0b5fcebe88ddedfb58f8b180a2b1162a0595cbf586f6f2e9"),
    (111, 48, 0.5, 0.5, 9, 21, "a9841b20abfc9eac2eafec28b6a3a7d74dc03cca7f0c2c7b647d5d2fb6537e37"),
    (112, 24, 0.8, 0.2, 2, 2, "1e0eeddef5cba8078e1f6bf7354f614f45e7750feedd1ae1a8bbad735dd2b8c9"),
    (117, 48, 0.5, 0.5, 18, 115, "e24d9642124ebe2caa25f8f93932d08d6be88045da55829e23b3d6dbb2c04e3d"),
)

ACCEPTED_IDS = (
    "100-24-0.8-0.2-10-14-a015d395c002afac80e93ea02af49e1116e6993dec16a9349aaa926091118e9c",
    "101-32-0.5-0.5-38-403-13dfead1f256f6f73db64728bbf69b5145d20aff68205b23036fc27896f82c54",
    "102-32-0.8-0.2-18-51-e9c70b8f638e023f5b00790fdc67d6cc1a4c379d4343f96b8bc21787da5da1ca",
    "103-40-0.5-0.5-48-693-137ca99f3187152c2789f42cb2ec765257ccadca71cd00265b3209fd8e40857c",
    "104-40-0.8-0.2-30-175-1643e6c4d8bba01a0d197034d6eabb48ce7a460c18e1bef9ac9d8bc1afa58fe4",
    "105-48-0.5-0.5-29-70-81ae458177c826088309f3d2963bf8b0d23ab04847588f990edad3404a51a5d0",
    "106-24-0.8-0.2-11-13-883a3b74c33d27517c1cb17e1e76af4d202d27736eaf191f08a677f1123ff1ab",
    "107-32-0.5-0.5-17-18-4aaf6a69bd0c856230c7056fc70ef7dd07a14fcb044e8eec26aef7cf3a8020fe",
    "108-32-0.8-0.2-20-24-02879538d3419c5438e459cb754a68bce6dbe833d8d2f8e3f8c6b8824c30d3d8",
    "109-40-0.5-0.5-21-100-db4b5b26c35d5c1f6d3827bafad7ad8b797c683c9f76215ec428baa78620c0d7",
    "110-40-0.8-0.2-35-610-c65f6730b9578ef2d3c18f1491a71e9e491a67f8ebd8172f8ca81814705cd510",
    "111-48-0.5-0.5-27-59-9012eab62f8c790e218930e7c9b02b18ff2d7ed10726024b7de35827ec1e277d",
    "112-24-0.8-0.2-2-2-1e0eeddef5cba8078e1f6bf7354f614f45e7750feedd1ae1a8bbad735dd2b8c9",
    "117-48-0.5-0.5-18-115-e24d9642124ebe2caa25f8f93932d08d6be88045da55829e23b3d6dbb2c04e3d",
)

# (index in the reject pool, unrooted, rooted); indices 0 and 75 are sparse
# random graphs, the others near-misses
REJECTED = (
    (0, 20, 116),
    (1, 19, 194),
    (40, 22, 266),
    (75, 22, 234),
    (110, 24, 343),
    (149, 18, 139),
)

REJECTED_IDS = ("0-37-411", "1-39-623", "40-43-1012", "75-33-379", "110-39-951", "149-44-773")


def _reject_pool():
    return json.loads(REJECT_POOL.read_text())["graphs"]


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])


@pytest.mark.parametrize(
    "seed, n, probe_bias, join_mix, unrooted, rooted, digest", ACCEPTED, ids=ACCEPTED_IDS
)
def test_accepted_run_is_pinned(seed, n, probe_bias, join_mix, unrooted, rooted, digest):
    b = gen_burling(
        GeneratorConfig(seed=seed, target_size=n, probe_bias=probe_bias, join_mix=join_mix)
    )
    g = _relabelled(induced_graph(b), random.Random(seed))
    w, stats = recognize_with_stats(g)
    assert w is not None
    assert (stats.unrooted_count, stats.rooted_count) == (unrooted, rooted)
    text = _pair_form(w)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the cover form that dump_burling_json writes states the same set
    assert load_burling_json(dump_burling_json(w)) == load_burling_json(text)


@pytest.mark.parametrize("index, unrooted, rooted", REJECTED, ids=REJECTED_IDS)
def test_rejected_run_is_pinned(index, unrooted, rooted):
    n, edges, _ = _reject_pool()[index]
    w, stats = recognize_with_stats(Graph(n, [tuple(e) for e in edges]))
    assert w is None
    assert (stats.unrooted_count, stats.rooted_count) == (unrooted, rooted)


def test_accepted_runs_stay_cheap():
    # Re-recording the pins with a root order that searches longer fails
    # here: trying roots in ascending vertex order took 2 534 on the whole
    # graphs, and degree order 708.
    assert sum(u + r for _, _, _, _, u, r, _ in ACCEPTED) <= 800


def test_rejected_pool_stays_cheap():
    # All 150 reject-pool graphs, as recorded: 46 791 subproblems before
    # rooted subproblems were refuted by their shape, 43 977 after.
    total = 0
    for n, edges, _ in _reject_pool():
        w, stats = recognize_with_stats(Graph(n, [tuple(e) for e in edges]))
        assert w is None
        total += stats.subproblem_count
    assert total <= 43_977
