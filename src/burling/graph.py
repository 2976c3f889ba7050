"""Simple undirected graphs on dense integer vertices.

Vertices are the integers 0..n-1.  Besides the graph type itself this module
holds the vertex-set helpers on Graph: neighborhoods, connected components
of induced subgraphs, triangle detection, and nesting orders of set
families, which rest on homogeneity of one set toward another.  The
recognizer runs on its own bitmasks and calls only components and
is_triangle_free; it orders its inner parts by _nesting, the mask routine
behind nesting_order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InputError


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        # plain ints only, which leaves out bool
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
        seen = set()
        adj = [set() for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge must be a pair of vertices, got {e!r}") from None
            if type(u) is not int or type(v) is not int:
                raise InputError(f"edge endpoints must be integers, got {e!r}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {e!r} out of range for {n} vertices")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(seen)
        self.adj = tuple(frozenset(a) for a in adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _as_vertex_set(g: Graph, s: Iterable[int]) -> frozenset:
    """Validate an iterable of vertices of g and return it as a frozenset."""
    out = frozenset(s)
    for v in out:
        if type(v) is not int or not (0 <= v < g.n):
            raise InputError(f"vertex {v!r} out of range for {g.n} vertices")
    return out


def neighborhood(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """Open neighborhood N(s) of a vertex set: the vertices outside s with
    at least one neighbor in s, sorted ascending."""
    sset = _as_vertex_set(g, s)
    acc = set()
    for v in sset:
        acc |= g.adj[v]
    return tuple(sorted(acc - sset))


def components(g: Graph, s: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced by s.

    Each component is a sorted tuple; the list is ordered by smallest member.
    """
    remaining = set(_as_vertex_set(g, s))
    out = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        remaining.discard(start)
        comp = [start]
        frontier = {start}
        while frontier:
            new = set()
            for v in frontier:
                new |= g.adj[v]
            new &= remaining
            remaining -= new
            comp += new
            frontier = new
        out.append(tuple(sorted(comp)))
    return out


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    for u, v in g.edges:
        if g.adj[u] & g.adj[v]:
            return False
    return True


def nesting_order(
    g: Graph, family: list[Iterable[int]]
) -> Optional[frozenset[tuple[int, int]]]:
    """Strict partial order on the indices of a nested family, else None.

    The family members must be pairwise disjoint vertex sets.  The family is
    nested when every pair (C1, C2) satisfies one of: N(C1) is a subset of
    N(C2) and homogeneous for C2; the same with roles swapped; or
    N(C1) and N(C2) are disjoint.  For a nested family this returns index
    pairs (i, j) meaning family[i] < family[j], such that comparable pairs
    satisfy the subset-and-homogeneous clause in that direction and
    incomparable pairs have disjoint neighborhoods.  Returns None when some
    pair violates all three clauses.  A pair that meets both subset clauses
    has equal neighborhoods, and is ordered by index, the lower first.  The
    recognizer calls _nesting on its own masks; this checked entry point
    serves callers outside the package and the tests.
    """
    sets = [_as_vertex_set(g, c) for c in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                raise InputError(f"family members {i} and {j} overlap")
    nbs = [frozenset().union(*(g.adj[v] for v in c)) - c for c in sets]
    # masks numbered over the vertices the family touches, not the graph's
    number = {v: i for i, v in enumerate(frozenset().union(*sets, *nbs))}

    def mask(vs) -> int:
        return sum(1 << number[v] for v in vs)

    adj = {number[v]: mask(g.adj[v]) for c in sets for v in c}
    return _nesting(adj, [mask(c) for c in sets], [mask(nb) for nb in nbs])


def _nesting(adj, parts, nbs) -> Optional[frozenset[tuple[int, int]]]:
    """nesting_order on masks: parts[i] is the i-th member as a vertex mask,
    nbs[i] its open neighborhood, and adj[v] the neighborhood mask of each
    member vertex v.  N(C1) is homogeneous for C2 when every vertex of C2
    sees all of it or none."""

    def homogeneous(nb: int, part: int) -> bool:
        while part:
            v = part.bit_length() - 1
            if adj[v] & nb not in (0, nb):
                return False
            part ^= 1 << v
        return True

    order = set()
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not nbs[i] & nbs[j]:
                continue
            if not nbs[i] & ~nbs[j] and homogeneous(nbs[i], parts[j]):
                order.add((i, j))
            elif not nbs[j] & ~nbs[i] and homogeneous(nbs[j], parts[i]):
                order.add((j, i))
            else:
                return None
    return frozenset(order)
