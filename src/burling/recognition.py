"""Deciding whether a graph is a Burling graph.

Vertices of degree at most one are peeled off first, one at a time, until
none is left; each peeled vertex v is recorded with its one neighbor u left
at that time, or none.  What remains is the 2-core, and only its components
go to the dynamic program below, on adjacency masks that hold only the
component's own vertices.  The peeled vertices are then attached back in
reverse order: v gets the pair v adj u and the pairs v prec z for every z
with u prec z, or no pair at all when it had no neighbor left.  This is
exact.  Burling graphs are closed under induced subgraphs, so a Burling
graph has a Burling core.  Conversely each attachment keeps the axioms: v's
prec-targets are u's, a chain closed under prec; v has a single adj-target;
u prec z for each of v's prec-targets z, which adj-target-enclosed asks; v
prec z for each of u's, which adj-extends-upward asks; and no pair enters
v, so the checks of the other elements do not change.  The graph gains just
the edge vu.  In frames, v is a small frame straddling the right side of
u's, inside every frame that holds u's: the generator's probe move, without
asking that u be exposed.  So peeling changes no verdict, only the witness,
and the dynamic program, about cubic in the core on a failing search, never
sees the tree-like fringe.

The decision procedure is a dynamic program over two kinds of subproblems,
both parameterized by a "blocked" vertex set X that is either empty or the
closed neighborhood N[v] of a single center vertex v:

  unrooted(X, S)    S a component of V-X; wants a Burling set on N[S] whose
                    adjacency graph is the induced subgraph on N[S] and in
                    which every vertex of N(S) is a probe
  rooted(X, r, S)   S a component of V-(X+{r}) containing a neighbor of r;
                    wants the same with r a root and N(S)-{r} all probes

The answer to a subproblem depends only on S respectively (r, S): the
blocked set X never appears in the requirement, it only governs which
subproblems arise.  The memo is therefore keyed by (None, S) respectively
(r, S), so the same subproblem reached under different blocked sets is
solved once.

Vertex sets are int bitmasks (bit v stands for vertex v), and each vertex
has an adjacency mask; neighborhoods and the frontiers of component
searches are ORs of adjacency masks.  The components of S-r for every
candidate root r of an unrooted subproblem come from one articulation-point
depth-first search of S.

An unrooted subproblem tries its candidate roots by their degree inside
N[S], highest first, ties in ascending vertex order.  A vertex of S has all
its neighbors in N[S], so that degree is its degree in the graph, and one
order of the vertices, fixed up front, serves every subproblem.
unrooted(S) is solvable exactly when some root works, and each subproblem's
answer depends only on its key, so the order cannot change a verdict: it
decides only how soon a working root is found and which witness is built.
Ascending vertex order alone made the cost depend on the labelling, since a
generator that gives enclosing elements high ids leaves the working roots
last.

A rooted subproblem is refuted before it recurses when its shape fails.
The shape is what rooted(r, S) needs without recursion: the components of
S-N(r), each with its link, the single neighbor in N(r) that makes it
outer-eligible when that lies in S, and whether it is inner-eligible, all
its neighbors in N(r).  It fails when some component is neither, or when
some probe fits none of its three shapes even with each component given
whichever role suits that probe.  The recursive part asks the same of the
roles its children's plans fix, so a failed shape is a subproblem with no
solution: it is stored as failed and never becomes a generator.  Shapes are
also checked before any child is demanded.  An unrooted subproblem checks
the shapes of all the children of a root before it demands the first, and
skips the root when one is known to fail or is refuted.  A rooted one
checks the shapes of rooted(q, C) for its components C that are not
inner-eligible, which must be outer, and fails in the same case.  A shape
that passes is kept until its key is demanded, so no shape is checked
twice, even for a child of a root that was then abandoned.  Each refutation
stands for a failure the recursive search would reach: the skipped root
would have failed at that child, the rooted subproblem at that component.
Each key's answer and plan depend only on the key, so only the order in
which answers are computed changes, and with it the number of subproblems,
since a refuted one's children are never demanded.  Every verdict, plan and
witness stays as it was.  When S-r is connected, the check that each probe
of an unrooted subproblem reaches into a single component of S-r holds
vacuously and is skipped.

The memo keeps each subproblem's plan: for unrooted(S) the chosen root and
its components, for rooted(r, S) the inner, outer and pendant parts and the
nesting order of the inner parts, each followed by N[S]; a failed or
refuted subproblem is kept as None.  The nesting order reads each inner
part's N(C) off that part's own plan.  The witness is built once at the end
from the plans of the solved tree, N[S] included, as each element's cover
and the adj pairs (_Recognizer.witness).  Subproblems are solved
on demand, in the order the recursive definition visits them: each one is
a generator that yields the subproblems it needs and receives their plans,
driven by a loop over an explicit stack, so deep inputs need no recursion.

The core is a Burling graph exactly when unrooted(empty, C) is solvable for
every component C, and the union of those solutions is a witness.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .core import BurlingSet
from .errors import ContractError, InputError
from .graph import Graph, _nesting, components, is_triangle_free, neighborhood


@dataclass(frozen=True)
class RecognitionStats:
    """How many distinct subproblems one recognition run answered:
    unrooted(S) ones and rooted(r, S) ones, over the components of the
    graph's 2-core up to and including the first that has no solution.  A
    subproblem counts once its answer is known, whether it was solved,
    failed in its search, or was refuted by its shape before it recursed
    (see the module docstring); a shape checked without refuting counts
    only once its subproblem is demanded.  A forest has no core and counts
    none."""

    unrooted_count: int
    rooted_count: int

    @property
    def subproblem_count(self) -> int:
        return self.unrooted_count + self.rooted_count


def _members(m: int):
    """The vertices of mask m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _inside_one(t: int, masks) -> bool:
    """Whether mask t lies inside one of the masks (vacuously when empty)."""
    return not t or any(not t & ~m for m in masks)


def _lowest(m: int) -> int:
    """The smallest vertex of a non-empty mask."""
    return (m & -m).bit_length() - 1


class _Recognizer:
    """The dynamic program on one connected component of a graph's 2-core,
    or of the graph: its masks and its plan memo.

    The component's vertices, names[0] < names[1] < ..., are numbered 0, 1,
    ... in the masks, and each vertex's adjacency mask keeps only its
    neighbors among them, so the masks are the component's own graph, as
    wide as the component, and the graph itself is not kept.  Every order
    the program follows is the order of the names, except the order in
    which roots are tried: turn[v] sorts v by degree, highest first, then
    by name (see the module docstring).  plans maps (None, S) to an
    unrooted plan (r, components, N[S]) and (r, S) to a rooted plan (inner,
    outer, pendant, order, N[S]), or either to None when the subproblem has
    no solution.  shapes maps a rooted key to its shape while that shape
    has passed its check and the key has not been demanded.
    """

    def __init__(self, g: Graph, names: tuple):
        self.names = names
        self.bit = bit = [1 << i for i in range(len(names))]
        number = {v: i for i, v in enumerate(names)}
        self.adj = [sum(bit[number[w]] for w in g.adj[v] if w in number) for v in names]
        n = len(names)
        self.turn = [i - n * a.bit_count() for i, a in enumerate(self.adj)]
        self.plans = {}
        self.shapes = {}

    # -- vertex sets ------------------------------------------------------

    def _around(self, m: int) -> int:
        """The union of the neighborhoods of the vertices of m."""
        acc, adj, bit = 0, self.adj, self.bit
        while m:
            v = m.bit_length() - 1
            acc |= adj[v]
            m ^= bit[v]
        return acc

    def _cut_search(self, s: int):
        """Depth-first search of the connected set s from its smallest
        vertex, visiting smaller neighbors first.

        Returns (bits, size, low, rank): per preorder position i, the bit
        of the i-th vertex visited, the size of its subtree (positions i to
        i + size[i] - 1) and the smallest position adjacent to that subtree
        (itself included); rank lists the positions in the order roots are
        tried.  A child c of the vertex at position i is cut off from the
        rest by removing it exactly when low[c] >= i.
        """
        adj, bit = self.adj, self.bit
        v = _lowest(s)
        pos = {bit[v]: 0}  # keyed by the vertex's bit
        # An unrooted subproblem keeps these while the subproblems it demands
        # are solved, so the positions go in compact int arrays.
        bits, size, low = [bit[v]], array("i", [0]), array("i", [0])
        unseen = s ^ bit[v]
        path = [(0, adj[v] & s)]  # (position, neighbors in s)
        while path:
            i, around = path[-1]
            nxt = around & unseen
            if nxt:
                w = _lowest(nxt)
                b = bit[w]
                j = pos[b] = len(bits)
                unseen ^= b
                bits.append(b)
                size.append(0)
                around = adj[w] & s
                # the visited neighbors of w are its ancestors, the parent at
                # position i among them
                lo, back = i, around & ~unseen ^ bits[i]
                while back:
                    x = back & -back
                    lo = min(lo, pos[x])
                    back ^= x
                low.append(lo)
                path.append((j, around))
            else:
                path.pop()
                size[i] = len(bits) - i
                if path:
                    p = path[-1][0]
                    if low[i] < low[p]:
                        low[p] = low[i]
        turn = [self.turn[b.bit_length() - 1] for b in bits]
        rank = array("i", sorted(range(len(bits)), key=turn.__getitem__))
        return bits, size, low, rank

    # -- the subproblems ----------------------------------------------------

    def solve(self, key):
        """The plan of the subproblem key, solving every subproblem it
        demands first, depth first in demand order.  A generator demands a
        subproblem by yielding its key."""
        plans = self.plans
        stack = []
        value = self._demand(key, stack)
        while stack:
            top, gen = stack[-1]
            try:
                child = gen.send(value)
            except StopIteration as done:
                stack.pop()
                value = plans[top] = done.value
                continue
            value = self._demand(child, stack)
        return plans[key]

    def _demand(self, key, stack):
        """key's plan when it is known or its shape refutes it; else None,
        with key's generator pushed on the stack, a rooted one taking the
        shape kept for it."""
        if key not in self.plans:
            r, s = key
            if r is None:
                stack.append((key, self._unrooted(s)))
                return None
            if not self._refuted(key):
                stack.append((key, self._rooted(r, s, self.shapes.pop(key))))
                return None
        return self.plans[key]

    def _refuted(self, key) -> bool:
        """Whether the rooted subproblem key is known to fail or its shape
        refutes it, stored then as a failed plan.  A shape that passes is
        kept in shapes until key is demanded, so each key's shape is checked
        at most once.  Never recurses."""
        plans = self.plans
        if key in plans:
            return plans[key] is None
        if key not in self.shapes:
            shape = self._shape(*key)
            if shape is None:
                plans[key] = None
                return True
            self.shapes[key] = shape
        return False

    def _unrooted(self, s):
        """Solves unrooted(S): yields the subproblems it needs, in order, and
        returns its plan or None."""
        adj = self.adj
        nclosed = s | self._around(s)
        # N(S) is independent (it sits inside the neighborhood of the center,
        # and the graph is triangle-free), so each p in N(S) meets N[S] only
        # within S itself.
        reach = [adj[p] & nclosed for p in _members(nclosed & ~s)]
        bits, size, low, rank = self._cut_search(s)
        for i in rank:
            rb = bits[i]
            r = rb.bit_length() - 1
            # the components of S-r: the subtrees of the children cut off
            # from the rest, and the rest; the root's first subtree is its rest
            comps = []
            j, end = i + 1, i + size[i]
            if not i and j < end:
                j += size[j]
            while j < end:
                if low[j] >= i:
                    comps.append(sum(bits[j : j + size[j]]))
                j += size[j]
            rest = s ^ rb ^ sum(comps)
            if rest:
                comps.append(rest)
            comps.sort(key=lambda m: m & -m)
            # each probe must reach into a single component of S-r, which
            # it does when there is at most one
            if len(comps) > 1 and not all(_inside_one(t & ~rb, comps) for t in reach):
                continue
            # refute the root by its children's shapes before demanding any
            if any(self._refuted((r, c)) for c in comps):
                continue
            for c in comps:
                if (yield r, c) is None:
                    break
            else:
                return r, tuple(comps), nclosed
        return None

    def _shape(self, r, s):
        """The shape of rooted(r, S), or None when it alone refutes the
        subproblem; never recurses.  The shape is (components, N[S]): the
        components of S-N(r), ordered by smallest vertex, each as
        (component, q, inner), where q is its link, its single neighbor in
        N(r) when that lies in S, else None, and inner says whether all its
        neighbors lie in N(r).  The subproblem fails when some component
        may be neither inner nor outer (no link), or when some probe fits
        none of its shapes even with each component given whichever role
        suits that probe."""
        adj, bit = self.adj, self.bit
        nr = adj[r]
        comps = []
        around_s = self._around(s & nr)
        inner_zone, outer_zones = bit[r], []
        rest = s & ~nr
        while rest:
            c = frontier = rest & -rest
            rest ^= c
            around = 0
            while frontier:
                # one layer of a breadth-first search of the component
                step = 0
                while frontier:
                    v = frontier.bit_length() - 1
                    step |= adj[v]
                    frontier ^= bit[v]
                around |= step
                frontier = step & rest
                rest ^= frontier
                c |= frontier
            around_s |= around
            nc = around & ~c
            link = nc & nr
            q = link.bit_length() - 1 if link & s and not link & (link - 1) else None
            inner = not nc & ~nr
            if q is None:
                if not inner:
                    return None
            else:
                outer_zones.append(c | bit[q])
            if inner:
                inner_zone |= c
            comps.append((c, q, inner))
        nclosed = s | around_s
        if self._pendants(r, s, nclosed, inner_zone, outer_zones) is None:
            return None
        return comps, nclosed

    def _pendants(self, r, s, nclosed, inner_zone, outer_zones):
        """The pendant probes (p, q) of rooted(r, S) with N[S] nclosed, or
        None when some probe p outside S and r fits none of three shapes:
        reaching only inner_zone (r and the inner components), a single
        neighbor q of r inside S (pendant on q), or inside one outer zone
        (an outer component plus its link)."""
        adj = self.adj
        nrs = adj[r] & s
        pendant = []
        for p in _members(nclosed & ~s & ~self.bit[r]):
            t = adj[p] & nclosed
            if not t & ~inner_zone:
                continue
            if not t & (t - 1) and t & nrs:
                pendant.append((p, t.bit_length() - 1))
                continue
            if not _inside_one(t, outer_zones):
                return None
        return pendant

    def _rooted(self, r, s, shape):
        """Solves rooted(r, S), whose shape passed, like _unrooted solves
        unrooted(S)."""
        bit = self.bit
        comps, nclosed = shape
        # A component that may not be inner must be outer: refute the
        # subproblem by those children's shapes before demanding any.
        if any(self._refuted((q, c)) for c, q, inner in comps if not inner):
            return None
        # Inner components will be represented nested inside r, outer ones
        # beside r, attached through their link q.  A component that
        # qualifies both ways is taken as inner.
        inner_parts, outer = [], []  # outer: (component, q)
        for c, q, inner in comps:
            if inner and (yield None, c) is not None:
                inner_parts.append(c)
                continue
            if q is not None and (yield q, c) is not None:
                outer.append((c, q))
                continue
            return None
        pendant = self._pendants(
            r, s, nclosed, bit[r] | sum(inner_parts), [c | bit[q] for c, q in outer]
        )
        if pendant is None:
            return None
        # each inner part's own plan holds its N[C]
        nbs = [self.plans[None, c][-1] & ~c for c in inner_parts]
        order = _nesting(self.adj, inner_parts, nbs)
        if order is None:
            return None
        return tuple(inner_parts), tuple(outer), tuple(pendant), order, nclosed

    # -- witnesses ----------------------------------------------------------

    def witness(self, key, cover: dict, adj_pairs: set) -> None:
        """Records, between names, the covers and adj pairs of the solved
        subproblem key and of every subproblem its plan rests on: the cover
        of each element that has one into cover, and the adj pairs into
        adj_pairs.

        Only rooted(r, S) adds prec pairs: each x in an inner part C_i goes
        inside r, and inside each y of C_j that sees N(C_i) when C_i nests
        in C_j.  Any other pair is between the elements of one part's own
        solution, a deeper one, so x's cover is there when x has a target
        there.  Otherwise it is the least of r and the y's: in the innermost
        C_j that C_i nests in, the one y that is no other's cover, since
        those y are the ancestors of the least of them, and r when C_i nests
        in none.  Subproblems are visited children first, so the covers in
        C_j are known by then; top[key] holds the elements of S that are
        left without a cover."""
        adj, name, bit = self.adj, self.names, self.bit
        keys, todo = [], [key]
        while todo:
            key = todo.pop()
            keys.append(key)
            r, s = key
            plan = self.plans[key]
            if r is None:
                todo += ((plan[0], c) for c in plan[1])
            else:
                todo += ((None, c) for c in plan[0])
                todo += ((q, c) for c, q in plan[1])
        top = {}
        for key in reversed(keys):
            r, s = key
            plan = self.plans[key]
            if r is None:
                root, comps, nclosed = plan
                rb = bit[root]
                top[key] = rb | sum(top[root, c] for c in comps)
                adj_pairs.update(
                    (name[p], name[root])
                    for p in _members(nclosed & ~s)
                    if adj[p] & nclosed == rb
                )
                continue
            inner, outer, pendant, order, nclosed = plan
            top[key] = s & ~sum(inner) & ~sum(c for c, _ in outer)
            top[key] |= sum(top[q, c] for c, q in outer)
            for i, c in enumerate(inner):
                around = [j for k, j in order if k == i]
                target = name[r]
                if around:
                    j = next(j for j in around if not any((k, j) in order for k in around))
                    nb = self.plans[None, c][-1] & ~c
                    ys = [name[y] for y in _members(inner[j]) if adj[y] & nb]
                    covers = {cover[y] for y in ys}
                    target = next(y for y in ys if y not in covers)
                for x in _members(top[None, c]):
                    cover[name[x]] = target
            adj_pairs.update((name[q], name[r]) for q in _members(adj[r] & nclosed))
            adj_pairs.update((name[p], name[q]) for p, q in pendant)


def subproblem_structure(g: Graph, root, s) -> "BurlingSet | None":
    """The Burling set the dynamic program builds for one subproblem:
    unrooted(S) when root is None, else rooted(root, S); None when it has
    no solution.  s is a non-empty connected vertex set, as an iterable,
    and root a neighbor of s outside it; anything else is an InputError.
    Only the tests call it, to check single subproblems."""
    comps = components(g, s)
    if len(comps) != 1:
        raise InputError("s must be a non-empty connected vertex set")
    s = set(comps[0])
    if root is not None and (type(root) is not int or root not in neighborhood(g, s)):
        raise InputError(f"root {root!r} is not a neighbor of s outside it")
    names = next(c for c in components(g, range(g.n)) if s <= set(c))
    rec = _Recognizer(g, names)
    number = {v: i for i, v in enumerate(names)}
    local = sum(rec.bit[number[v]] for v in s)
    key = (None if root is None else number[root], local)
    plan = rec.solve(key)
    if plan is None:
        return None
    order = sorted(names[v] for v in _members(plan[-1]))
    cover, adj = dict.fromkeys(order), set()
    rec.witness(key, cover, adj)
    if len(cover) > len(order) or any(x not in cover for pair in adj for x in pair):
        raise ContractError("subproblem solution covers the wrong element set")
    return BurlingSet._from_covers(order, cover, adj)


def recognize(g: Graph) -> "BurlingSet | None":
    """A Burling set whose adjacency graph is g, or None if none exists.

    Vertices of g become the elements of the result.  Graphs containing a
    triangle are rejected before the dynamic program runs.  Only the 2-core
    of g goes through the dynamic program; the peeled vertices are attached
    to its witness as probes (see the module docstring).
    """
    return recognize_with_stats(g)[0]


def _peel(g: Graph):
    """(peeled, kept): g's vertices of degree at most one, peeled one at a
    time until none is left, as (v, u) pairs in peeling order, u being v's
    one neighbor left when v went, or None; and the vertices of the 2-core,
    ascending.  No graph is built: each core component's recognizer keeps
    only the component's edges."""
    deg = [len(a) for a in g.adj]
    gone = bytearray(g.n)
    stack = [v for v in range(g.n) if deg[v] <= 1]
    peeled = []
    while stack:
        v = stack.pop()
        gone[v] = 1
        u = next((w for w in g.adj[v] if not gone[w]), None)
        peeled.append((v, u))
        if u is not None:
            deg[u] -= 1
            if deg[u] == 1:
                stack.append(u)
    return peeled, [v for v in range(g.n) if not gone[v]]


def recognize_with_stats(g: Graph):
    """(recognize(g), RecognitionStats): unrooted(C) for each component C
    of g's 2-core in turn, stopping at the first that has no solution; the
    witness is built only once every component is solved.  The triangle
    check runs on g itself: peeling never removes a vertex of a triangle,
    which keeps two neighbors in it."""
    unrooted = rooted = 0
    witness = None
    peeled, kept = _peel(g)
    if g.n and is_triangle_free(g):
        solved = []
        for names in components(g, kept):
            rec = _Recognizer(g, names)
            key = (None, (1 << len(names)) - 1)
            ok = rec.solve(key) is not None
            u = sum(1 for r, _ in rec.plans if r is None)
            unrooted += u
            rooted += len(rec.plans) - u
            if not ok:
                break
            solved.append((rec, key))
        else:
            witness = _attach(g.n, solved, peeled)
    return witness, RecognitionStats(unrooted, rooted)


def _attach(n: int, solved, peeled) -> BurlingSet:
    """The witness on vertices 0..n-1, held by its covers: the solved
    components' covers and adj pairs, with the peeled vertices attached back
    in reverse order, each v under the cover of its neighbor u, since v's
    prec-targets are u's."""
    cover, adj = dict.fromkeys(range(n)), set()
    for rec, key in solved:
        rec.witness(key, cover, adj)
    for v, u in reversed(peeled):
        if u is not None:
            adj.add((v, u))
            cover[v] = cover[u]
    return BurlingSet._from_covers(range(n), cover, adj)
