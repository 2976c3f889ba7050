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
The union of the two relations is then acyclic too, with no check of its
own: a shortest cycle has no prec pair, which the pair before it would
shortcut by transitivity or adj-extends-upward, so it is an adj cycle.

verify_axioms checks prec pair by pair only where it must.  Taking elements
by ascending number of prec-targets, _settle calls x settled when its
targets are none, or exactly p and p's targets for a settled target p with
the most targets, which it tests by p having one target fewer than x, all
of them x's.  By induction on that number, the targets of a settled x form
a prec-chain that is closed under prec and does not hold x: p precedes
each of its own targets, which form such a chain, and x is neither p,
settled before it, nor one of p's targets, whose targets would all be p's,
fewer than x's.  So no pair (x, y) with x settled can break irreflexivity
or transitivity, and prec-out-chain holds at x.  On a valid set every
element is settled, its targets being its cover p and p's targets.

A set is held by its covers exactly when every element is settled: it then
keeps prec as its cover forest, each element's cover or None, whose
ancestor relation prec is, and no pair.  gen_burling, extract_burling,
recognize and load_burling_json on a file of covers build such sets from
covers (_from_covers).  BurlingSet(...) and load_burling_json on a file of
pairs hand their pairs to _hold, which settles them once and keeps only the
covers when every element is settled, and otherwise the pairs, their
out-map and the covers of the settled elements, from which verify_axioms
reports whatever is wrong.  On a set held by its covers, verify_axioms
checks only the adj axioms, on the forest's DFS spans and the index's one
Kahn sort, and _forest orders the set by its covers; two such sets compare
by covers and adj, since a forest's ancestor relation fixes its covers.
The index lays the forest out once, by DFS spans in topological order
(_spans).  prec's pairs are built from the forest on first read, and read
only by chordal_relation, classify_elements, restrict and the joins.

The undirected graph with an edge for every adj pair is the Burling graph of
the set.  Roots, probes, and exposed elements single out where the structure
can keep growing:

  root     no outgoing prec or adj pair
  probe    no prec pair in either direction and no incoming adj pair
  exposed  no outgoing prec pair
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .errors import ContractError, InputError
from .graph import Graph


@dataclass(frozen=True)
class BurlingSet:
    """Immutable candidate Burling set.

    Construction validates shape only (pairs reference declared elements,
    elements non-empty and mutually comparable); whether the axioms hold is
    the job of verify_axioms.  Element ids may be any sortable hashable
    values; integers internally, strings at file boundaries.  A set is held
    by its covers exactly when every element is settled, else by its pairs
    (see the module docstring); two sets are equal when their elements,
    prec and adj are, which is read off their covers when both are held by
    them.
    """

    elements: frozenset
    adj: frozenset

    def __init__(self, elements, prec=(), adj=()):
        elements = frozenset(elements)
        if not elements:
            raise InputError("a Burling set needs at least one element")
        try:
            order = sorted(elements)
        except TypeError:
            raise InputError("element ids must be mutually comparable") from None
        prec = _relation(prec, elements, "prec")
        _hold(order, _relation(adj, elements, "adj"), prec, b=self)

    @classmethod
    def _from_covers(cls, order, cover, adj) -> BurlingSet:
        """The set held by its covers: the elements of order, which lists
        them in ascending order; prec, the ancestor relation of the forest
        cover, x -> x's cover or None for every element; and the pairs adj.
        Nothing is checked: the library's own constructions call it, and
        load_burling_json once it has checked that the covers form a
        forest on declared names."""
        return _hold(order, adj, cover=cover)

    def ordered(self) -> list:
        """Element ids sorted ascending; the canonical iteration order."""
        return list(self._order)

    @cached_property
    def prec(self) -> frozenset:
        """The prec pairs.  A set held by its covers builds them from the
        forest on first read; any other keeps them from construction."""
        above = {}
        for x in self._spans:
            c = self._cover[x]
            above[x] = () if c is None else (c, *above[c])
        return frozenset((x, y) for x, ys in above.items() for y in ys)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.elements != other.elements or self.adj != other.adj:
            return False
        if self._by_covers or other._by_covers:
            # which elements are settled depends on prec alone
            return self._by_covers == other._by_covers and self._cover == other._cover
        return self.prec == other.prec

    def __hash__(self) -> int:
        return hash((self.elements, self.adj))

    def __repr__(self) -> str:
        if self._by_covers:
            pairs = sum((leave - enter - 1) // 2 for enter, leave in self._spans.values())
        else:
            pairs = len(self.prec)
        return (
            f"BurlingSet({len(self.elements)} elements, "
            f"{pairs} prec, {len(self.adj)} adj)"
        )

    # The relation index.  _hold sets _order, the sorted elements, _cover,
    # x -> x's cover or None for each settled x, and _by_covers, whether
    # every element is settled; a set not held by its covers also keeps
    # _out_prec, prec's out-map x -> {y : x prec y}.  The structures below
    # derive from these, each built on first use and kept for the life of
    # the immutable set; callers must not modify the maps.  Only _forest
    # assumes the axioms' consequences, and raises ContractError where
    # they fail.

    @cached_property
    def _out_adj(self) -> dict:
        return _maps(self.elements, self.adj)

    @cached_property
    def _spans(self) -> dict:
        """The set's one layout of the cover forest, for a set held by its
        covers: _dfs over _kahn's topo reversed, or over the ids if topo is
        None.  Its keys reversed are a postorder with siblings in topo's
        order, x's cone the (leave - enter - 1) // 2 keys before x, and on a
        Burling set a topological order (see mis).
        Raises ContractError if the covers form a cycle."""
        topo = self._kahn[1]
        spans = _dfs(self._order if topo is None else topo[::-1], self._cover)
        if len(spans) < len(self._order):
            raise ContractError("the covers form a cycle")
        return spans

    @cached_property
    def _kahn(self) -> tuple:
        """(succ, topo) for a set held by its covers: succ maps x to its
        cover, if any, and its adj-targets, and topo is Kahn's sort of succ
        (_topo_sort), None on a cycle.  verify_axioms, _spans and _forest
        share it."""
        out_adj = self._out_adj
        succ = {x: out_adj[x] if c is None else (c, *out_adj[x]) for x, c in self._cover.items()}
        return succ, _topo_sort(self._order, succ)

    @cached_property
    def _forest(self) -> tuple:
        """(topo, parent, up): the smallest-id-first topological order of
        prec ∪ adj, and the forests of prec ∪ adj and of prec, in which an
        element's parent is its first out-target in topo, None at a root.

        Built from the covers, when the set is held by them: x's targets
        are then its cover c and c's targets, so up is the cover map, and
        topo is Kahn's sort over the covers and adj pairs, whose ready
        elements depend only on reachability.  x's parent y is the first of
        c and x's adj-targets; when y has the others as prec-targets (each
        one's span in _spans holds y's) it has all of x's targets but itself,
        its targets being closed under prec, so by induction from the end of
        topo they are x's ancestors in the first forest.

        Every set that verify_axioms accepts passes.  Its elements are all
        settled, and prec ∪ adj is acyclic (see the module docstring), so
        the covers and adj pairs are too.  x's cover and adj-targets form a
        prec-chain, by adj-out-chain and adj-target-enclosed, and c is none
        of x's adj-targets, being no prec-target of itself; so their first
        in topo is their least.  Any other set may raise a ContractError
        quoting its report's first line, the report computed only then."""
        if self._by_covers:
            span = self._spans
            succ, topo = self._kahn
            pos = {x: i for i, x in enumerate(topo or ())}
            parent = {x: min(succ[x], key=pos.__getitem__, default=None) for x in pos}
            if topo and all(
                len(ts) < 2
                or len({t for t in ts if span[t][0] < span[parent[x]][0] < span[t][1]})
                == len(ts) - 1
                for x, ts in succ.items()
            ):
                return topo, parent, self._cover
        raise ContractError("not a Burling set: " + verify_axioms(self).lines()[0])


def _maps(elements, pairs) -> dict:
    out = {x: set() for x in elements}
    for x, y in pairs:
        out[x].add(y)
    return out


def _settle(order, out_prec) -> dict:
    """x -> the cover of x, or None when x has no prec-target, for each
    settled x among the elements of order, by prec's out-map (see the module
    docstring); other elements are absent.  The cover is x's prec-target
    with the most targets."""
    size = {x: len(out_prec[x]) for x in order}
    cover = {}
    for x in sorted(order, key=size.__getitem__):
        ts = out_prec[x]
        p = None
        if ts:
            p = max(ts, key=size.__getitem__)
            if p not in cover or size[p] + 1 != size[x] or not out_prec[p] <= ts:
                continue
        cover[x] = p
    return cover


def _hold(order, adj, prec=None, cover=None, b=None) -> BurlingSet:
    """The set on the elements of order, which lists them in ascending
    order, with the pairs adj and prec given either as pairs of elements or
    by cover, x -> x's cover or None for every element; b, when given, is
    the new set to fill in.  Nothing is checked.  This decides how a set
    holds prec: pairs are settled once, on their out-map, and the set keeps
    only the covers when every element is settled, as it keeps a given
    cover, and otherwise the pairs, the out-map and the settled elements'
    covers.  The constructor calls it after its checks, _from_covers, and
    load_burling_json on a file of pairs after its bulk checks."""
    b = BurlingSet.__new__(BurlingSet) if b is None else b
    if cover is None:
        out_prec = _maps(order, prec)
        cover = _settle(order, out_prec)
        if len(cover) < len(order):
            vars(b).update(prec=frozenset(map(tuple, prec)), _out_prec=out_prec)
    vars(b).update(
        elements=frozenset(order), adj=frozenset(map(tuple, adj)), _order=tuple(order),
        _cover=cover, _by_covers=len(cover) == len(order),
    )
    return b


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


def _dfs(order, up) -> dict:
    """{x: (enter, leave)} on the forest x -> up[x], None at a root, keys in
    preorder: roots and children are visited in order, and the clock ticks
    once per step from 1, so descendants' spans nest inside their
    ancestors' and the others' are disjoint.  Elements on or below a cycle
    of up are left out."""
    children = {x: [] for x in order}
    for x in order:
        if up[x] is not None:
            children[up[x]].append(x)
    stack = [(x, None) for x in reversed(order) if up[x] is None]
    spans = {}
    clock = 1
    while stack:
        x, enter = stack.pop()
        if enter is None:
            spans[x] = None  # a placeholder, so keys come in preorder
            stack.append((x, clock))
            stack.extend((c, None) for c in reversed(children[x]))
        else:
            spans[x] = (enter, clock)
        clock += 1
    return spans


def _chordal_forest(topo, out) -> dict:
    """Each element's first out-target in topo, None when it has none.
    topo is a topological order of the acyclic relation given by out.

    The relation is chordal when the out-targets of every element are
    pairwise related.  Every related pair points forward in topo, so it is
    enough that the first out-target of each element has all the others as
    out-targets (the elimination order test of Rose, Tarjan and Lueker,
    1976): an element whose targets fail to be pairwise related, taken last
    in topo, would otherwise pass its unrelated pair on to its first
    target.  Raises ContractError naming x and an unrelated pair y, z of
    its out-targets at the first such x in topo.
    """
    pos = {x: i for i, x in enumerate(topo)}
    parent = {}
    for x in topo:
        ts = out[x]
        if not ts:
            parent[x] = None
            continue
        y = min(ts, key=pos.__getitem__)
        missing = ts - out[y]  # y itself, on an acyclic relation
        if len(missing) > 1:
            missing.discard(y)
            z = min(missing, key=pos.__getitem__)
            raise ContractError(f"out-targets {y!r}, {z!r} of {x!r} are unrelated")
        parent[x] = y
    return parent


def _relation(pairs, elements, label) -> frozenset:
    """The pairs, checked to be pairs of declared elements, as a frozenset
    of tuples.  Checked in bulk; only when that check fails are they
    walked one by one to name the first bad entry."""
    pairs = pairs if isinstance(pairs, (list, tuple, set, frozenset)) else tuple(pairs)
    try:
        if (
            set(map(type, pairs)) <= {tuple}
            and set(map(len, pairs)) <= {2}
            and elements.issuperset(chain.from_iterable(pairs))
        ):
            return frozenset(pairs)
    except TypeError:
        pass
    rel = set()
    for p in pairs:
        try:
            x, y = p
        except (TypeError, ValueError):
            raise InputError(f"{label} entry {p!r} is not a pair") from None
        if x not in elements or y not in elements:
            raise InputError(f"{label} pair {p!r} references an undeclared element")
        rel.add((x, y))
    return frozenset(rel)


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


def _chain_gap(targets, related, in_count):
    """A pair of prec-incomparable members of targets, or None.

    Sorting by how many elements precede each target puts any prec-chain in
    chain order, so when prec is transitive it is enough to test consecutive
    members a, b by related(a, b).  (When transitivity is broken that check
    has already produced its own violation.)
    """
    ts = sorted(targets, key=lambda t: (in_count[t], t))
    for a, b in zip(ts, ts[1:]):
        if not related(a, b):
            return (a, b)
    return None


def verify_axioms(b: BurlingSet) -> VerificationReport:
    """Check every axiom, reporting each failure with a witnessing tuple.

    Intended for untrusted input, so nothing is assumed.  When every element
    is settled (see the module docstring), prec is the ancestor relation of
    the cover forest and only the adj axioms can fail.  They are then read
    off the index: adj is acyclic when _kahn sorts the covers and adj pairs;
    in-counts are cone sizes from _spans, and y prec z when z's span holds
    y's; the enclosed and upward checks walk x's and y's cover chains up to
    the first ancestor of y and of x.  Otherwise transitivity of prec is
    checked pair by pair from every element that is not settled.  Either
    way the report is the same, and the index is built once for a set
    checked and then solved or framed.
    """
    elems, out_adj, settled = b._order, b._out_adj, b._cover
    if not b._by_covers:
        return _pairwise_report(b)
    span = b._spans
    size = {x: (leave - enter - 1) // 2 for x, (enter, leave) in span.items()}

    def below(y, z):
        return span[z][0] < span[y][0] < span[z][1]

    viols = []
    if b._kahn[1] is None:
        cyc = _find_cycle(elems, out_adj)
        if cyc is not None:
            viols.append(Violation("adj-acyclic", cyc))
    found = []
    for x in elems:
        if len(out_adj[x]) > 1:
            gap = _chain_gap(out_adj[x], below, size)
            if gap is not None:
                viols.append(Violation("adj-out-chain", (x, *gap)))
        for y in out_adj[x]:
            extra, z = [], settled[x]
            while z is not None and not below(y, z):
                extra.append(z)
                z = settled[z]
            if extra:
                found.append(((x, y), 0, Violation("adj-target-enclosed", (x, y, min(extra)))))
            extra, z = [], settled[y]
            while z is not None and not below(x, z):
                if z not in out_adj[x]:
                    extra.append(z)
                z = settled[z]
            if extra:
                found.append(((x, y), 1, Violation("adj-extends-upward", (x, y, min(extra)))))
    viols += (v for *_, v in sorted(found, key=lambda f: f[:2]))
    return VerificationReport(tuple(viols))


def _pairwise_report(b: BurlingSet) -> VerificationReport:
    """verify_axioms on a set with an element that is not settled."""
    elems = b._order
    out_prec, out_adj = b._out_prec, b._out_adj
    prec = b.prec
    settled = b._cover
    pairs = sorted((x, y) for x in elems if x not in settled for y in out_prec[x])
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

    in_count = Counter(y for _, y in prec)

    def related(a, c):
        return (a, c) in prec or (c, a) in prec

    for x in elems:
        if len(out_prec[x]) > 1 and x not in settled:
            gap = _chain_gap(out_prec[x], related, in_count)
            if gap is not None:
                viols.append(Violation("prec-out-chain", (x, gap[0], gap[1])))
        if len(out_adj[x]) > 1:
            gap = _chain_gap(out_adj[x], related, in_count)
            if gap is not None:
                viols.append(Violation("adj-out-chain", (x, gap[0], gap[1])))

    for x, y in sorted(b.adj):
        extra = out_prec[x] - out_prec[y]
        if extra:
            viols.append(Violation("adj-target-enclosed", (x, y, min(extra))))
        extra = out_prec[y] - out_adj[x] - out_prec[x]
        if extra:
            viols.append(Violation("adj-extends-upward", (x, y, min(extra))))

    return VerificationReport(tuple(viols))


@dataclass(frozen=True)
class ElementClassification:
    roots: frozenset
    probes: frozenset
    exposed: frozenset


def classify_elements(b: BurlingSet) -> ElementClassification:
    """Roots, probes, and exposed elements of a Burling set."""
    # Only the sources and targets of pairs matter: no relation map is built.
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
    """The substructure induced on a non-empty subset u of the elements.
    Only the tests call it, the metamorphic ones for heredity."""
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
    exposed.  Only the generator's reference test and the benchmark tracer
    call it.
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
    of b2 outside b1 stay roots; probes of b2 stay probes.  Only the
    generator's reference test and the benchmark tracer call it.
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
    out_adj2 = _maps(b2.elements, b2.adj)
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
