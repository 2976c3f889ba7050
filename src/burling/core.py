"""Burling sets: the abstract structures behind Burling graphs.

A Burling set is a triple (S, prec, adj) where S is a non-empty finite set,
prec ("x prec y": the frame of x sits strictly inside the frame of y) is a
strict partial order, adj ("x adj y": the frame of x crosses out of the frame
of y, making the two frames intersect) is acyclic, and the two relations
interact so that a strict family of axis-parallel rectangle boundaries can
realize exactly these relations.  Writing both pairs (x, y) in relation
order, the axioms say, for all x, y, z:

  prec-out-chain       x prec y and x prec z with y != z  =>  y, z comparable by prec
  adj-out-chain        x adj y and x adj z with y != z    =>  y, z comparable by prec
  adj-target-enclosed  x adj y and x prec z               =>  y prec z
  adj-extends-upward   x adj y and y prec z               =>  x adj z or x prec z

together with irreflexivity and transitivity of prec and acyclicity of adj.
The union of the two relations is then acyclic as well; that consequence is
asserted as an extra check.

The undirected graph with an edge for every adj pair is the Burling graph of
the set.  Roots, probes, and exposed elements single out where the structure
can keep growing:

  root     no outgoing prec or adj pair
  probe    no prec pair in either direction and no incoming adj pair
  exposed  no outgoing prec pair
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ContractError, InputError
from .graph import Graph


@dataclass(frozen=True)
class BurlingSet:
    """Immutable candidate Burling set.

    Construction validates shape only (pairs reference declared elements,
    elements non-empty); whether the axioms hold is the job of verify_axioms.
    Element ids may be any sortable hashable values; integers internally,
    strings at file boundaries.
    """

    elements: frozenset
    prec: frozenset
    adj: frozenset

    def __init__(self, elements, prec=(), adj=()):
        elements = frozenset(elements)
        if not elements:
            raise InputError("a Burling set needs at least one element")
        prec = frozenset(_check_pairs(prec, elements, "prec"))
        adj = frozenset(_check_pairs(adj, elements, "adj"))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "adj", adj)

    def ordered(self) -> list:
        """Element ids sorted ascending; the canonical iteration order."""
        return list(self._order)

    def __repr__(self) -> str:
        return (
            f"BurlingSet({len(self.elements)} elements, "
            f"{len(self.prec)} prec, {len(self.adj)} adj)"
        )

    # The relation index: structures derived from the relations, each built
    # on first use and kept for the life of the immutable set.  Maps come in
    # (out, in) pairs, x -> {y : x R y} and y -> {x : x R y}, for R = prec,
    # adj and their union; callers must not modify the sets.  Nothing here
    # assumes the axioms.

    @cached_property
    def _order(self) -> tuple:
        return tuple(sorted(self.elements))

    @cached_property
    def _prec_maps(self) -> tuple:
        return _maps(self.elements, self.prec)

    @cached_property
    def _adj_maps(self) -> tuple:
        return _maps(self.elements, self.adj)

    @cached_property
    def _rel_maps(self) -> tuple:
        return _maps(self.elements, self.prec | self.adj)

    @cached_property
    def _topo(self):
        """The smallest-id-first topological order of prec ∪ adj, or None
        when the combined relation has a cycle."""
        return _topo_sort(self._order, self._rel_maps[0])


def _maps(elements, pairs) -> tuple:
    out = {x: set() for x in elements}
    inc = {x: set() for x in elements}
    for x, y in pairs:
        out[x].add(y)
        inc[y].add(x)
    return out, inc


def _topo_sort(nodes, succ):
    """Kahn's sort of the digraph x -> succ[x] over nodes, which succ must
    not leave.  The smallest ready node goes first, so the order is unique.
    Returns a tuple, or None when the digraph has a cycle."""
    indeg = dict.fromkeys(nodes, 0)
    for x in indeg:
        for y in succ[x]:
            indeg[y] += 1
    heap = [x for x, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    return tuple(order) if len(order) == len(indeg) else None


def _check_pairs(pairs, elements, label):
    for p in pairs:
        try:
            x, y = p
        except (TypeError, ValueError):
            raise InputError(f"{label} entry {p!r} is not a pair") from None
        if x not in elements or y not in elements:
            raise InputError(f"{label} pair {p!r} references an undeclared element")
        yield (x, y)


@dataclass(frozen=True)
class Violation:
    """One failed check: the check id and a witnessing tuple of elements."""

    check: str
    witness: tuple


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        if self.ok:
            return ["OK"]
        return [
            f"{v.check}: {', '.join(str(w) for w in v.witness)}"
            for v in self.violations
        ]


def _find_cycle(elements_sorted, out):
    """A directed cycle as a vertex tuple, or None."""
    state = {}  # 1 = on stack, 2 = done
    for start in elements_sorted:
        if start in state:
            continue
        path = [start]
        iters = [iter(sorted(out[start]))]
        state[start] = 1
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                state[path.pop()] = 2
                iters.pop()
                continue
            mark = state.get(nxt)
            if mark == 1:
                return tuple(path[path.index(nxt):])
            if mark is None:
                state[nxt] = 1
                path.append(nxt)
                iters.append(iter(sorted(out[nxt])))
    return None


def _chain_gap(targets, prec, in_count):
    """A pair of prec-incomparable members of targets, or None.

    Sorting by how many elements precede each target puts any prec-chain in
    chain order, so when prec is transitive it is enough to test consecutive
    members.  (When transitivity is broken that check has already produced
    its own violation.)
    """
    ts = sorted(targets, key=lambda t: (in_count[t], t))
    for a, b in zip(ts, ts[1:]):
        if (a, b) not in prec and (b, a) not in prec:
            return (a, b)
    return None


def verify_axioms(b: BurlingSet) -> VerificationReport:
    """Check every axiom, reporting each failure with a witnessing tuple.

    Intended for untrusted input, so nothing is assumed: transitivity of prec
    is checked explicitly rather than trusted.
    """
    # The maps are not cached on the set: every set that is loaded, generated
    # or extracted is verified once, and the many kept afterwards would
    # carry maps several times their own size.
    elems = b._order
    out_prec, in_prec = _maps(b.elements, b.prec)
    out_adj, _ = _maps(b.elements, b.adj)
    prec = b.prec
    viols = []

    for x, y in sorted(b.prec):
        if x == y:
            viols.append(Violation("prec-irreflexive", (x,)))

    for x, y in sorted(b.prec):
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
    for x in elems:
        if len(out_prec[x]) > 1:
            gap = _chain_gap(out_prec[x], prec, in_count)
            if gap is not None:
                viols.append(Violation("prec-out-chain", (x, gap[0], gap[1])))
        if len(out_adj[x]) > 1:
            gap = _chain_gap(out_adj[x], prec, in_count)
            if gap is not None:
                viols.append(Violation("adj-out-chain", (x, gap[0], gap[1])))

    for x, y in sorted(b.adj):
        extra = out_prec[x] - out_prec[y]
        if extra:
            viols.append(Violation("adj-target-enclosed", (x, y, min(extra))))
        extra = out_prec[y] - out_adj[x] - out_prec[x]
        if extra:
            viols.append(Violation("adj-extends-upward", (x, y, min(extra))))

    if not viols:
        # Consequence of the axioms; asserted as a final sanity check.
        out_rel = {x: out_prec[x] | out_adj[x] for x in elems}
        cyc = _find_cycle(elems, out_rel)
        if cyc is not None:
            viols.append(Violation("rel-acyclic", cyc))

    return VerificationReport(tuple(viols))


@dataclass(frozen=True)
class ElementClassification:
    roots: frozenset
    probes: frozenset
    exposed: frozenset


def classify_elements(b: BurlingSet) -> ElementClassification:
    """Roots, probes, and exposed elements of a Burling set."""
    # Only the sources and targets of pairs matter, so no relation map is
    # built or cached: gen_burling classifies every set it grows through.
    exposed = b.elements - {x for x, _ in b.prec}
    roots = exposed - {x for x, _ in b.adj}
    probes = exposed - {y for _, y in b.prec} - {y for _, y in b.adj}
    return ElementClassification(roots, probes, exposed)


def induced_graph(b: BurlingSet) -> Graph:
    """The Burling graph of b: one vertex per element in sorted id order,
    an edge for every adj pair."""
    order = b.ordered()
    index = {x: i for i, x in enumerate(order)}
    edges = set()
    for x, y in b.adj:
        i, j = index[x], index[y]
        if i > j:
            i, j = j, i
        edges.add((i, j))
    return Graph(len(order), edges)


def restrict(b: BurlingSet, u) -> BurlingSet:
    """The substructure induced on a non-empty subset u of the elements."""
    u = frozenset(u)
    if not u:
        raise InputError("cannot restrict to an empty element set")
    if not u <= b.elements:
        raise InputError("restriction set contains undeclared elements")
    return BurlingSet(
        u,
        (p for p in b.prec if p[0] in u and p[1] in u),
        (p for p in b.adj if p[0] in u and p[1] in u),
    )


def outer_join(b1: BurlingSet, b2: BurlingSet, q) -> BurlingSet:
    """Glue two Burling sets at a single shared element q.

    Requires elements(b1) and elements(b2) to intersect exactly in {q}, q a
    root of b1, and q exposed in b2.  The result is the plain union of both
    structures; it is again a Burling set, every root of b2 stays a root,
    every probe of either side other than q stays a probe, and q stays
    exposed.
    """
    shared = b1.elements & b2.elements
    if shared != frozenset((q,)):
        raise ContractError(
            f"outer join requires the element sets to share exactly {{{q!r}}}, "
            f"they share {sorted(shared)!r}"
        )
    c1 = classify_elements(b1)
    if q not in c1.roots:
        raise ContractError(f"outer join requires {q!r} to be a root of the first set")
    c2 = classify_elements(b2)
    if q not in c2.exposed:
        raise ContractError(f"outer join requires {q!r} to be exposed in the second set")
    return BurlingSet(
        b1.elements | b2.elements, b1.prec | b2.prec, b1.adj | b2.adj
    )


def inner_join(b1: BurlingSet, b2: BurlingSet, s2_prime) -> BurlingSet:
    """Glue two Burling sets along shared probes.

    Requires Q = elements(b1) & elements(b2) to be non-empty and a set of
    probes in both structures, and s2_prime to be exactly the set of
    adj-targets of q inside b2 for every q in Q (the same set for all of
    them).  The result keeps both structures, and additionally every element
    of b1 outside b2 goes strictly inside every element of s2_prime.  Roots
    of b2 outside b1 stay roots; probes of b2 stay probes.
    """
    q_set = b1.elements & b2.elements
    if not q_set:
        raise ContractError("inner join requires the element sets to intersect")
    s2p = frozenset(s2_prime)
    if not s2p <= b2.elements:
        raise ContractError("inner join requires s2_prime inside the second element set")
    p1 = classify_elements(b1).probes
    p2 = classify_elements(b2).probes
    bad = sorted(q_set - p1)
    if bad:
        raise ContractError(f"shared elements must be probes of the first set: {bad!r}")
    bad = sorted(q_set - p2)
    if bad:
        raise ContractError(f"shared elements must be probes of the second set: {bad!r}")
    out_adj2, _ = _maps(b2.elements, b2.adj)
    for q in sorted(q_set):
        if frozenset(out_adj2[q]) != s2p:
            raise ContractError(
                f"s2_prime must equal the adj-targets of {q!r} in the second set"
            )
    new_prec = set(b1.prec) | set(b2.prec)
    for x in b1.elements - b2.elements:
        for y in s2p:
            new_prec.add((x, y))
    return BurlingSet(b1.elements | b2.elements, new_prec, b1.adj | b2.adj)
