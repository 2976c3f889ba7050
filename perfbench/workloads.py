"""The benchmark's workloads: how each builds its corpus from a seed, what
one request does, and how an answer is checked.

Every request goes through the public library functions, looked up on their
modules at call time so that the traced run's wrappers see them.  Corpus
sizes follow a fixed schedule and only the generator seeds, labels and
weights come from the seed, so two seeds give corpora of the same shape.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from burling import core, frames, generator, graph, io, mis, oracles, recognition

NOT_BURLING = "NOT_BURLING"


def graph_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def relabeled_edges(g, rng: random.Random) -> list:
    """The edges of g under a random vertex permutation, so vertex ids carry
    no trace of the order the generator created them in."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]


def generated(seed: int, n: int, probe_bias: float, join_mix: float):
    return generator.gen_burling(
        generator.GeneratorConfig(
            seed=seed, target_size=n, probe_bias=probe_bias, join_mix=join_mix
        )
    )


def int_named(b):
    """A loaded Burling set with its string names turned back into ints."""
    return core.BurlingSet(
        (int(x) for x in b.elements),
        ((int(a), int(c)) for a, c in b.prec),
        ((int(a), int(c)) for a, c in b.adj),
    )


class Workload:
    """One corpus shape plus its request and answer check.

    build(seed) is the set-up a user pays for: generating and serializing
    the inputs.
    """

    name = ""
    why = ""

    def build(self, seed: int) -> list:
        raise NotImplementedError

    def request(self, item):
        raise NotImplementedError

    def check(self, item, answer):
        """None when the answer is right, else a one-line reason."""
        raise NotImplementedError

    def extra_checks(self, items, seed: int) -> list:
        """Reasons for failed checks that are not tied to one answer."""
        return []

    def item_bytes(self, item) -> bytes:
        return repr(item).encode()

    def corpus_hash(self, items) -> str:
        h = hashlib.sha256()
        for item in items:
            h.update(self.item_bytes(item))
            h.update(b"\0")
        return h.hexdigest()


# -- recognition ---------------------------------------------------------------


class _Recognize(Workload):
    def request(self, text):
        g = io.parse_graph_text(text)
        b = recognition.recognize(g)
        return NOT_BURLING if b is None else io.dump_burling_json(b)

    def item_bytes(self, text) -> bytes:
        return text.encode()


class RecognizeAccept(_Recognize):
    name = "recognize-accept"
    why = (
        "Burling graphs at probe-heavy and balanced generator settings: the "
        "recognition dynamic program and its bimodal subproblem count"
    )
    # (vertices, probe_bias, join_mix), cycled over the corpus
    SHAPES = (
        (24, 0.8, 0.2), (32, 0.5, 0.5), (32, 0.8, 0.2),
        (40, 0.5, 0.5), (40, 0.8, 0.2), (48, 0.5, 0.5),
    )
    SIZE = 960

    def build(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(self.SIZE):
            n, pb, jm = self.SHAPES[i % len(self.SHAPES)]
            b = generated(rng.getrandbits(63), n, pb, jm)
            out.append(graph_text(n, relabeled_edges(core.induced_graph(b), rng)))
        rng.shuffle(out)
        return out

    def check(self, text, answer):
        if answer == NOT_BURLING:
            return "a generated Burling graph was rejected"
        witness = int_named(io.load_burling_json(answer))
        report = core.verify_axioms(witness)
        if not report.ok:
            return f"witness breaks an axiom: {report.lines()[0]}"
        if core.induced_graph(witness) != io.parse_graph_text(text):
            return "the witness's graph is not the input graph"
        return None


def random_triangle_free(n: int, m: int, rng: random.Random) -> list:
    """Up to m random edges on n vertices, skipping any edge that would
    close a triangle."""
    nbrs = [set() for _ in range(n)]
    edges = []
    tries = 0
    while len(edges) < m and tries < 50 * m:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v in nbrs[u] or nbrs[u] & nbrs[v]:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((min(u, v), max(u, v)))
    return edges


class RecognizeReject(_Recognize):
    """Serves the graphs of reject_pool.json, each under a seeded vertex
    permutation.  Every graph there was rejected by recognition at the
    commit that recorded the pool (see make_reject_pool.py), so the answer
    each input must get is known without running the code under test;
    relabeling a graph does not change whether it is a Burling graph."""

    name = "recognize-reject"
    why = (
        "triangle-free graphs that are not Burling graphs: the same dynamic "
        "program on its exhaustive failure path"
    )
    POOL = Path(__file__).resolve().parent / "reject_pool.json"
    SIZE = 150
    SMALL_SAMPLE = 6  # seeded 6-vertex graphs checked by exhaustive search

    def pool(self) -> list:
        """[vertices, edges, extra edge of a near-miss or None] per graph."""
        pool = json.loads(self.POOL.read_text())
        if pool["verdict"] != NOT_BURLING:
            raise ValueError(f"{self.POOL.name} records verdict {pool['verdict']!r}")
        return pool["graphs"][: self.SIZE]

    def build(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for n, edges, _ in self.pool():
            out.append(graph_text(n, relabeled_edges(graph.Graph(n, edges), rng)))
        rng.shuffle(out)
        return out

    def check(self, text, answer):
        if answer != NOT_BURLING:
            return "answer differs from the recorded verdict NOT_BURLING"
        return None

    def extra_checks(self, items, seed):
        """Recognition accepts, with a valid witness, every near-miss graph
        without its extra edge: a generated Burling graph of the same size
        and structure as the served inputs (up to 913 subproblems each at
        the seed commit), so a recognizer that gives up early on inputs of
        this size fails here rather than passing for a fast one.  And
        recognition
        agrees with exhaustive search on seeded 6-vertex triangle-free
        graphs (every such graph is Burling, so at this size the oracle
        confirms the accepting side)."""
        bad = []
        for n, edges, extra in self.pool():
            if extra is None:
                continue
            base = graph.Graph(n, [e for e in edges if e != extra])
            w = recognition.recognize(base)
            if w is None or not core.verify_axioms(w).ok or core.induced_graph(w) != base:
                bad.append("a generated Burling graph of the corpus was not recognized")
        rng = random.Random(f"{self.name}:small:{seed}")
        for _ in range(self.SMALL_SAMPLE):
            g = graph.Graph(6, random_triangle_free(6, rng.randrange(4, 8), rng))
            fast = recognition.recognize(g) is not None
            slow = oracles.exhaustive_recognize(g) is not None
            if fast != slow:
                bad.append(f"recognize and exhaustive search disagree on {sorted(g.edges)}")
        return bad


# -- independent sets ------------------------------------------------------------


class Indep(Workload):
    name = "indep"
    why = (
        "nested Burling sets with integer weights: cone decomposition in "
        "solve_indep, which scans the whole relation once per cone"
    )
    SIZES = (16, 20, 36, 44, 52)
    SIZE = 150
    BRUTE_FORCE_MAX = 20
    CROSS_SAMPLE = 6  # larger inputs re-solved on a recognized witness

    def build(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(self.SIZE):
            n = self.SIZES[i % len(self.SIZES)]
            b = generated(rng.getrandbits(63), n, 0.3, 0.8)
            weights = {str(x): rng.randrange(100) for x in b.ordered()}
            out.append((io.dump_burling_json(b), weights))
        rng.shuffle(out)
        return out

    def request(self, item):
        text, weights = item
        return mis.solve_indep(io.load_burling_json(text), weights)

    def item_bytes(self, item) -> bytes:
        text, weights = item
        return (text + repr(sorted(weights.items()))).encode()

    def check(self, item, answer):
        text, weights = item
        chosen, total = answer
        b = io.load_burling_json(text)
        if sum(weights[x] for x in chosen) != total:
            return "reported total differs from the chosen weights"
        if any(a in chosen and c in chosen for a, c in b.adj):
            return "the chosen set contains an adj pair"
        if len(b.elements) <= self.BRUTE_FORCE_MAX:
            g, w = self._graph_and_weights(b, weights)
            if oracles.brute_force_mwis(g, w)[1] != total:
                return "total differs from brute force"
        return None

    def extra_checks(self, items, seed):
        """Larger inputs: re-solve on the witness recognition builds for the
        same graph, a second Burling set with the same crossing pairs."""
        rng = random.Random(f"{self.name}:cross:{seed}")
        large = [it for it in items if self._size(it) > self.BRUTE_FORCE_MAX]
        bad = []
        for text, weights in rng.sample(large, min(self.CROSS_SAMPLE, len(large))):
            b = io.load_burling_json(text)
            g, w = self._graph_and_weights(b, weights)
            want = mis.solve_indep(b, weights)[1]
            got = mis.max_weight_independent_set(g, w)
            if got is None or got[1] != want:
                bad.append("a second witness gives another optimum")
        return bad

    @staticmethod
    def _size(item):
        return len(io.load_burling_json(item[0]).elements)

    @staticmethod
    def _graph_and_weights(b, weights):
        ib = int_named(b)
        return core.induced_graph(ib), {
            i: weights[str(x)] for i, x in enumerate(ib.ordered())
        }


# -- frames ----------------------------------------------------------------------


class Frames(Workload):
    name = "frames"
    why = (
        "larger mixed sets through build_frames in both constraint modes and "
        "back: the quadratic checks of the geometry layer"
    )
    # Sizes form an even ladder, so the median falls among many similar
    # inputs rather than in a gap between two size classes.
    SIZES = (56, 64, 72, 80, 88, 96, 104, 112)
    SETTINGS = ((0.5, 0.5), (0.8, 0.2), (0.3, 0.8))
    SIZE = 64

    def build(self, seed):
        """Each size is built in both constraint modes equally often, and
        consecutive requests alternate between the modes."""
        rng = random.Random(f"{self.name}:{seed}")
        modes = ([], [])
        for i in range(self.SIZE):
            n = self.SIZES[i % len(self.SIZES)]
            pb, jm = self.SETTINGS[i % len(self.SETTINGS)]
            b = generated(rng.getrandbits(63), n, pb, jm)
            modes[(i // len(self.SIZES)) % 2].append(io.dump_burling_json(b))
        for texts in modes:
            rng.shuffle(texts)
        return [
            (text, linear)
            for pair in zip(*modes)
            for text, linear in zip(pair, (False, True))
        ]

    def request(self, item):
        text, linear = item
        b = io.load_burling_json(text)
        report = core.verify_axioms(b)
        if not report.ok:
            raise ValueError(f"input breaks an axiom: {report.lines()[0]}")
        family = frames.build_frames(b, linear)
        dumped = io.dump_frames_json(family)
        loaded = io.load_frames_json(dumped)
        strict = frames.verify_strict(loaded)
        back = frames.extract_burling(loaded)
        return dumped, strict.ok, back

    def item_bytes(self, item) -> bytes:
        text, linear = item
        return (text + str(linear)).encode()

    def check(self, item, answer):
        text, _ = item
        _, strict_ok, back = answer
        if not strict_ok:
            return "built family is not strict"
        if back != io.load_burling_json(text):
            return "extracting the family does not give back the input set"
        return None


WORKLOADS = {w.name: w for w in (RecognizeAccept(), RecognizeReject(), Indep(), Frames())}
