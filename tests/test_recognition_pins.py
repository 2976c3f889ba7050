"""Recorded recognition runs that any rewrite of the dynamic program must
reproduce exactly.

The values were recorded with unrooted subproblems trying their roots by
degree in N[S], highest first and ties in ascending vertex order.  The
earlier values were recorded in ascending vertex order alone, which took
2 534 subproblems on the accepted runs against 708 now.  For each generated
Burling graph (the two generator settings of the benchmark's accepting
workload, under a seeded vertex relabelling) the test pins the number of
unrooted and rooted subproblems the run creates and the SHA-256 of the
witness's JSON; for graphs of the benchmark's reject pool it pins the
verdict and the two counts.  Equal counts mean the rewrite explores the
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
    recognize_with_stats,
)

REJECT_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reject_pool.json"

# (seed, vertices, probe_bias, join_mix, unrooted, rooted, witness SHA-256)
ACCEPTED = (
    (100, 24, 0.8, 0.2, 9, 15, "331493e442e83d52547bc94e4e09f7cf718a605550d338c50f8b72b976128441"),
    (101, 32, 0.5, 0.5, 20, 92, "1fda69fafc4432e902b1cf9acfe3541e9da669e1abc7218f891a2291d27952c2"),
    (102, 32, 0.8, 0.2, 14, 16, "b70b94a746eced1c70ac6b3c7b3d0d23ed03437aa611705a0ffeacb8da738ad3"),
    (103, 40, 0.5, 0.5, 17, 31, "daa61460ec76a00126eef18cb405e413e92ca17660d2affbbeee3c9a6f2442a2"),
    (104, 40, 0.8, 0.2, 16, 19, "b9e7bf6c8fcb9b004513b14d7fad1727003b22b69db23dd149865998d43941ad"),
    (105, 48, 0.5, 0.5, 20, 45, "1c0148adf7eb0292885a32989481b8af66ab6fb6e88ae7f01f0f9a2a802b328e"),
    (106, 24, 0.8, 0.2, 12, 12, "32ba76eff87065c370f711eb968d218395286f7b248e7ce96e4fea0d2ede4fe9"),
    (107, 32, 0.5, 0.5, 14, 16, "a33fd04551d81099efe6b3478e96ef8acd5b47a4671d8f3997faf011d6ff265d"),
    (108, 32, 0.8, 0.2, 14, 15, "8336cccaea91a201236010433d0b87e67dd96178cb2ea2643ff069272ec0e0b7"),
    (109, 40, 0.5, 0.5, 27, 175, "a0f9bfe899a6d37394e62d2c58550dfa12ce3e47d18d0c7041184eacffd0d8d4"),
    (110, 40, 0.8, 0.2, 10, 23, "5ffe0e6d61b0595aeb0fe30103762407342c9cf570468ba174034ddc11c852ec"),
    (111, 48, 0.5, 0.5, 22, 54, "1f74e2afc8a4038b5eb320841b0ebabd3d498031e508ae47087e72110d09179f"),
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
)

# (index in the reject pool, unrooted, rooted); indices 0 and 75 are sparse
# random graphs, the others near-misses
REJECTED = (
    (0, 36, 400),
    (1, 39, 622),
    (40, 43, 1012),
    (75, 33, 376),
    (110, 39, 951),
    (149, 46, 773),
)

REJECTED_IDS = ("0-37-411", "1-39-623", "40-43-1012", "75-33-379", "110-39-951", "149-44-773")


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
    assert hashlib.sha256(dump_burling_json(w).encode()).hexdigest() == digest


@pytest.mark.parametrize("index, unrooted, rooted", REJECTED, ids=REJECTED_IDS)
def test_rejected_run_is_pinned(index, unrooted, rooted):
    n, edges, _ = json.loads(REJECT_POOL.read_text())["graphs"][index]
    w, stats = recognize_with_stats(Graph(n, [tuple(e) for e in edges]))
    assert w is None
    assert (stats.unrooted_count, stats.rooted_count) == (unrooted, rooted)


def test_accepted_runs_stay_cheap():
    # Re-recording the pins with a root order that searches longer fails
    # here: trying roots in ascending vertex order took 2 534.
    assert sum(u + r for _, _, _, _, u, r, _ in ACCEPTED) <= 800
