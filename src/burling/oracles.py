"""Independent brute-force oracles.

These exist to cross-check the polynomial algorithms and are written from
the definitions alone: brute_force_mwis branches over subsets, and
exhaustive_recognize searches the full space of relation pairs on a small
vertex set.  Both enforce hard size guards.
"""

from __future__ import annotations

from .core import BurlingSet, verify_axioms
from .errors import InputError
from .graph import Graph, is_triangle_free
from .mis import _check_weights


def brute_force_mwis(g: Graph, weights) -> tuple:
    """Exact maximum-weight independent set by memoized branching.

    Branches on a maximum-degree vertex of the remaining graph (include it
    and drop its closed neighborhood, or exclude it), memoizing on the
    remaining-vertex bitmask.  Ties prefer inclusion and the lowest vertex
    id, so the answer is deterministic.
    """
    if g.n > 24:
        raise InputError(f"brute force MWIS capped at 24 vertices, got {g.n}")
    _check_weights(range(g.n), weights)
    nbr = [0] * g.n
    for u in range(g.n):
        m = 0
        for v in g.adj[u]:
            m |= 1 << v
        nbr[u] = m

    memo = {}

    def best(rem: int) -> tuple:
        if rem == 0:
            return 0, 0
        hit = memo.get(rem)
        if hit is not None:
            return hit
        pick, deg = -1, -1
        m = rem
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = bin(nbr[v] & rem).count("1")
            if d > deg:
                pick, deg = v, d
        bit = 1 << pick
        ex_w, ex_set = best(rem & ~bit)
        in_w, in_set = best(rem & ~(nbr[pick] | bit))
        in_w += weights[pick]
        if in_w >= ex_w:
            res = (in_w, in_set | bit)
        else:
            res = (ex_w, ex_set)
        memo[rem] = res
        return res

    total, mask = best((1 << g.n) - 1)
    return frozenset(v for v in range(g.n) if mask >> v & 1), total


def exhaustive_recognize(g: Graph):
    """Search every pair of relations on the vertices of g for one whose
    adjacency pairs orient exactly the edges and which passes the axioms.

    Assignment order: each edge gets one of its two orientations as an adj
    pair; then each non-edge gets one of three states (unrelated first,
    then prec in either direction).  A branch is cut as soon as some axiom
    instance is violated on fully decided pairs; cuts only fire when every
    pair of the instance is decided, so no viable branch is lost.  The
    first surviving full assignment in this order is returned, gated by a
    final full axiom check.  None when no candidate exists.
    """
    if g.n > 8:
        raise InputError(f"exhaustive recognition capped at 8 vertices, got {g.n}")
    if g.n == 0:
        return None
    if not is_triangle_free(g):
        return None

    n = g.n
    edges = sorted((u, v) for u in range(n) for v in g.adj[u] if u < v)
    non_edges = sorted(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in g.adj[u] and u != v
    )

    po = [set() for _ in range(n)]  # prec targets
    pi = [set() for _ in range(n)]  # prec sources
    ao = [set() for _ in range(n)]  # adj targets
    ai = [set() for _ in range(n)]  # adj sources

    slots = [("adj", u, v) for u, v in edges] + [("prec", u, v) for u, v in non_edges]
    slot_index = {(u, v): i for i, (_, u, v) in enumerate(slots)}
    edge_count = len(edges)
    ticker = [0]  # number of decided slots

    def edge_pair(a, c) -> bool:
        key = (a, c) if a < c else (c, a)
        return slot_index.get(key, edge_count) < edge_count

    def decided(a, c) -> bool:
        key = (a, c) if a < c else (c, a)
        return slot_index[key] < ticker[0]

    def adj_ok(a, c) -> bool:
        """After adding a adj c.  Every adj slot precedes every prec slot,
        so prec-dependent axiom instances are vacuous here."""
        stack, seen = [c], {c}
        while stack:  # would a adj c close a directed adj cycle
            x = stack.pop()
            if x == a:
                return False
            for y in ao[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        for z in ao[a]:
            # two adj targets of a must become prec-comparable; edges never can
            if z != c and edge_pair(c, z):
                return False
        for x in ai[a]:
            # a and c would be adj targets of x, but the pair a, c is an edge
            if c in ao[x]:
                return False
        return True

    def prec_ok(a, c) -> bool:
        """After adding a prec c.  Each block cuts one axiom shape whose
        remaining pairs are already decided."""
        for z in po[c]:  # chain a prec c prec z needs a prec z
            if edge_pair(a, z) or (decided(a, z) and z not in po[a]):
                return False
            if a in po[z]:  # and z prec a would close a prec cycle
                return False
        for x in pi[a]:  # chain x prec a prec c needs x prec c
            if edge_pair(x, c) or (decided(x, c) and c not in po[x]):
                return False
        for z in po[a]:  # co-targets of a must be comparable
            if z == c:
                continue
            if edge_pair(c, z):
                return False
            if decided(c, z) and c not in po[z] and z not in po[c]:
                return False
        for y in ao[a]:  # a adj y with a prec c needs y prec c
            if edge_pair(y, c) or (decided(y, c) and c not in po[y]):
                return False
        for x in ai[a]:  # x adj a with a prec c needs x adj c or x prec c
            if edge_pair(x, c):
                if c not in ao[x]:
                    return False
            elif decided(x, c) and c not in po[x]:
                return False
        for x in ai[c]:  # x adj c with x prec a would demand c prec a
            if a in po[x]:
                return False
        for y in ao[c]:  # c adj y with y prec a would demand c before a
            if a in po[y]:
                return False
        return True

    def none_ok(a, c) -> bool:
        """After deciding a and c stay unrelated: no decided instance may
        demand a relation between them."""
        for x in pi[a]:
            if c in po[x]:
                return False  # common prec source
        for x in ai[a]:
            if c in ao[x]:
                return False  # common adj source
            if c in po[x]:
                return False  # x adj a, x prec c demands a prec c
        for x in ai[c]:
            if a in po[x]:
                return False
        for y in ao[a]:
            if c in po[y]:
                return False  # a adj y, y prec c demands a related to c
        for y in ao[c]:
            if a in po[y]:
                return False
        for y in po[a]:
            if c in po[y]:
                return False  # transitivity demands a prec c
        for y in po[c]:
            if a in po[y]:
                return False
        return True

    adj_pairs = []
    prec_pairs = []

    def attempt(i: int):
        if i == len(slots):
            cand = BurlingSet(range(n), prec_pairs, adj_pairs)
            return cand if verify_axioms(cand).ok else None
        kind, u, v = slots[i]
        if kind == "adj":
            for p, q in ((u, v), (v, u)):
                ao[p].add(q)
                ai[q].add(p)
                adj_pairs.append((p, q))
                ticker[0] = i + 1
                if adj_ok(p, q):
                    found = attempt(i + 1)
                    if found is not None:
                        return found
                adj_pairs.pop()
                ao[p].discard(q)
                ai[q].discard(p)
        else:
            ticker[0] = i + 1
            if none_ok(u, v):
                found = attempt(i + 1)
                if found is not None:
                    return found
            for p, q in ((u, v), (v, u)):
                po[p].add(q)
                pi[q].add(p)
                prec_pairs.append((p, q))
                ticker[0] = i + 1
                if prec_ok(p, q):
                    found = attempt(i + 1)
                    if found is not None:
                        return found
                prec_pairs.pop()
                po[p].discard(q)
                pi[q].discard(p)
        ticker[0] = i
        return None

    return attempt(0)
