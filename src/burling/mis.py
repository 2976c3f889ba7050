"""Exact maximum-weight independent set on Burling graphs.

The combined relation of a Burling set is chordal in the oriented sense:
both out-targets of any element are themselves related.  A topological
order of the relation is therefore a perfect elimination order of the graph
whose edges are the related pairs, and Frank's two-phase greedy solves
weighted independent set on that graph exactly.

solve_indep lifts this to the Burling graph itself (edges are only the adj
pairs): each element u carries the optimal solution inside its prec-cone
{x : x prec u}, folded into a boosted weight, and one chordal solve over
the whole relation combines the cones.  Elements of a selected cone are
nested inside u, hence non-adjacent to everything the top solution keeps.

The relation maps and the topological order come from the set's relation
index (see core.BurlingSet).  solve_indep checks weights and chordality
once, through chordal_relation, and then runs the greedy on each cone's
sub-relation cut from the index maps; it does not call mwis_chordal, which
keeps every check for relations from outside.

Weights are nonnegative integers.
"""

from __future__ import annotations

from .core import BurlingSet, _topo_sort
from .errors import ContractError, InputError
from .graph import Graph
from .recognition import recognize


def _check_weights(elements, weights) -> None:
    for x in elements:
        if x not in weights:
            raise InputError(f"no weight for element {x!r}")
        w = weights[x]
        if not isinstance(w, int) or isinstance(w, bool):
            raise InputError(f"weight of {x!r} must be an integer, got {w!r}")
        if w < 0:
            raise InputError(f"weight of {x!r} is negative")


def chordal_relation(b: BurlingSet) -> frozenset:
    """The combined relation prec ∪ adj, checked to be chordal.

    Chordal means acyclic with every out-target pair related in some
    direction.  Both follow from the axioms, so a failure here is a bug in
    the caller or this package, not bad input.
    """
    if b._topo is None:
        raise ContractError("combined relation has a cycle")
    gap = _unrelated_targets(b._order, b._rel_maps[0])
    if gap is not None:
        x, y, z = gap
        raise ContractError(f"out-targets {y!r}, {z!r} of {x!r} are unrelated")
    return b.prec | b.adj


def _unrelated_targets(order, out):
    """The first element x, in the given order, with two out-targets y < z
    related in neither direction, as (x, y, z); None if there is none."""
    for x in order:
        ts = sorted(out[x])
        for i, y in enumerate(ts):
            for z in ts[i + 1:]:
                if z not in out[y] and y not in out[z]:
                    return x, y, z
    return None


def _two_phase(peo, out, weights) -> tuple:
    """Frank's two-phase greedy over a perfect elimination order peo of a
    chordal relation given by out-maps that stay inside peo.  Returns
    (frozenset, weight).  The second phase walks peo backwards, so only
    out-targets of an element can already be kept when it is reached.
    """
    residual = {x: weights[x] for x in peo}
    marked = []
    for x in peo:
        r = residual[x]
        if r > 0:
            marked.append(x)
            for y in out[x]:
                residual[y] -= r
    chosen = set()
    for x in reversed(marked):
        if chosen.isdisjoint(out[x]):
            chosen.add(x)
    return frozenset(chosen), sum(weights[x] for x in chosen)


def mwis_chordal(elements, rel, weights) -> tuple:
    """Maximum-weight independent set of the graph whose edges are the
    related pairs, via the two-phase greedy over a perfect elimination
    order.  Returns (frozenset, weight).  Empty element set is fine.
    """
    order = sorted(elements)
    _check_weights(order, weights)
    out = {x: set() for x in order}
    for a, c in rel:
        if a not in out or c not in out:
            raise InputError(f"relation pair ({a!r}, {c!r}) leaves the element set")
        out[a].add(c)
    gap = _unrelated_targets(order, out)
    if gap is not None:
        raise ContractError(f"relation is not chordal at {gap[0]!r}")
    peo = _topo_sort(order, out)
    if peo is None:
        raise ContractError("combined relation has a cycle")
    return _two_phase(peo, out, weights)


def solve_indep(b: BurlingSet, weights) -> tuple:
    """Maximum-weight independent set of the Burling graph of b.

    Returns (frozenset of elements, weight).  Bottom-up over prec-cones:
    the cone of u is solved before u because it is strictly smaller than
    any cone containing u.
    """
    _check_weights(b._order, weights)
    chordal_relation(b)
    _, in_prec = b._prec_maps
    out_adj, in_adj = b._adj_maps
    out_rel, _ = b._rel_maps

    memo = {}  # u -> (expanded solution inside the cone of u, its weight)

    def cone_solve(peo, out):
        for x in peo:
            if x not in memo:
                # only reachable when prec is not transitive
                raise ContractError(f"cone of {x!r} was not solved first")
        boosted = {x: weights[x] + memo[x][1] for x in peo}
        core, total = _two_phase(peo, out, boosted)
        full = set(core)
        for x in core:
            full.update(memo[x][0])
        return frozenset(full), total

    # A cone's sub-relation of the chordal acyclic relation is again
    # chordal and acyclic, so cones are solved without a further check.
    for u in sorted(b._order, key=lambda x: len(in_prec[x])):
        cone = in_prec[u]
        out = {x: out_rel[x] & cone for x in cone}
        memo[u] = cone_solve(_topo_sort(cone, out), out)

    result, total = cone_solve(b._topo, out_rel)
    for x in result:
        bad = (out_adj[x] | in_adj[x]) & result
        if bad:
            raise ContractError(
                f"solution contains the adjacent pair {x!r}, {sorted(bad)[0]!r}"
            )
    return result, total


def max_weight_independent_set(g: Graph, weights):
    """Recognize g and solve on the witness; None when g is not a Burling
    graph.  Weights map every vertex 0..n-1 to a nonnegative integer."""
    if set(weights) != set(range(g.n)):
        raise InputError("weights must cover exactly the vertices 0..n-1")
    b = recognize(g)
    if b is None:
        return None
    return solve_indep(b, weights)
