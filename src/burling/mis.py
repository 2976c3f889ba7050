"""Exact maximum-weight independent set on Burling graphs.

The combined relation of a Burling set is chordal in the oriented sense:
both out-targets of any element are themselves related.  A topological
order of the relation is therefore a perfect elimination order of the graph
whose edges are the related pairs, and Frank's two-phase greedy (A. Frank,
1975) solves weighted independent set on that graph exactly.

solve_indep lifts this to the Burling graph itself (edges are only the adj
pairs): each element u carries the optimal solution inside its prec-cone
{x : x prec u}, folded into a boosted weight, and one chordal solve over
the whole relation combines the cones.  Elements of a selected cone are
nested inside u, hence non-adjacent to everything the top solution keeps.

By prec-out-chain every element's prec-targets form a chain, so prec is the
ancestor relation of its cover forest, and the cone of u, u's subtree minus
u, is the slice after u of the forest's preorder (b._spans), with no in-map.
solve_indep works on that forest, which the set's relation index builds and
checks once (b._forest, see core.BurlingSet):

  - one global order: the index's topological order, restricted to a cone,
    is one of the cone's, so a cone's slice is only sorted by position in it;
  - prec through the forest: in the greedy's first phase the deductions
    along prec reach an element as the sum of the residuals marked in its
    children's subtrees, passed up one parent at a time, and in the second
    phase an element with a chosen element above it is skipped by looking
    at its parent alone;
  - adj as it is: by adj-target-enclosed no adj-target leaves a cone, so
    only out_adj is walked.

A cone therefore costs O(|cone| log |cone| + its adj out-degrees), the log
for cutting its order out of the global one, rather than a topological
sort of its own and a walk over every member's whole prec chain.  The
greedy's choices do not depend on which topological order it follows (an
element's residual is settled by its in-neighbours, its choice by its
out-targets, and every topological order handles those first), so the
results are those of the greedy run on each cone's full sub-relation.

solve_indep checks weights once, and the relation once per set, by reading
b._forest as chordal_relation does; it does not call mwis_chordal, which
checks a relation from outside by its own sort and chordality check and
runs the same greedy with no forest.

Weights are nonnegative integers.
"""

from __future__ import annotations

from .core import BurlingSet, _chordal_forest, _topo_sort
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
    """The combined relation prec ∪ adj, checked to be chordal, with prec
    checked to be the ancestor relation of its cover forest.

    Chordal means acyclic with every out-target pair related in some
    direction.  All of it follows from the axioms, so a failure here is a
    bug in the caller or this package, not bad input.  Only the tests and
    the benchmark tracer call it.
    """
    b._forest  # checked while the set's relation forests are built
    return b.prec | b.adj


def mwis_chordal(elements, rel, weights) -> tuple:
    """Maximum-weight independent set of the graph whose edges are the
    related pairs, via the two-phase greedy over a perfect elimination
    order.  Returns (frozenset, weight).  Empty element set is fine.  Only
    the tests and the benchmark tracer call it.
    """
    order = sorted(elements)
    _check_weights(order, weights)
    out = {x: set() for x in order}
    for a, c in rel:
        if a not in out or c not in out:
            raise InputError(f"relation pair ({a!r}, {c!r}) leaves the element set")
        out[a].add(c)
    peo = _topo_sort(order, out)
    if peo is None:
        raise ContractError("combined relation has a cycle")
    _chordal_forest(peo, out)
    chosen, total = _cone_greedy(peo, dict.fromkeys(peo), out, weights)
    return frozenset(chosen), total


def _cone_greedy(order, parent, out, boosted) -> tuple:
    """Frank's two-phase greedy on the relation restricted to a cone, or to
    all elements, given in topological order.  Returns (set chosen, its
    boosted weight).

    The relation is the forest's ancestor relation plus out: an element's
    prec-targets inside the cone are its ancestors inside it, so its prec
    deduction is the sum of the residuals marked in its subtree, and it is
    blocked along prec when a chosen element lies above it.  A member whose
    parent lies outside the order (the cone's own element, or none at a
    root) passes its sum to a key that is never read.  With every parent
    None this is the plain two-phase greedy over out.
    """
    cut = {}  # deductions along out: residuals marked at in-neighbours
    below = {}  # residuals marked in the subtree, the element excluded
    marked = set()
    for x in order:
        s = below.get(x, 0)
        r = boosted[x] - s - cut.get(x, 0)
        if r > 0:
            marked.add(x)
            s += r
            for y in out[x]:
                cut[y] = cut.get(y, 0) + r
        if s:
            p = parent[x]
            below[p] = below.get(p, 0) + s
    chosen = set()
    covered = set()  # elements with a chosen element at or above them
    for x in reversed(order):
        if parent[x] in covered:
            covered.add(x)
        elif x in marked and chosen.isdisjoint(out[x]):
            chosen.add(x)
            covered.add(x)
    return chosen, sum(boosted[x] for x in chosen)


def solve_indep(b: BurlingSet, weights) -> tuple:
    """Maximum-weight independent set of the Burling graph of b.

    Returns (frozenset of elements, weight).  Bottom-up over prec-cones in
    reverse preorder: the cone of u follows u there, so each of its members
    has its own cone solved already.
    """
    _check_weights(b._order, weights)
    topo, _, parent = b._forest
    pos = {x: i for i, x in enumerate(topo)}
    spans, out_adj = b._spans, b._out_adj

    inner = {}  # u -> elements chosen in the cone of u, their cones not expanded
    boosted = {}  # u -> weight of u plus the optimum inside its cone
    pre = list(spans)
    for i in reversed(range(len(pre))):
        u = pre[i]
        enter, leave = spans[u]
        total = 0
        if leave - enter > 1:
            order = sorted(pre[i + 1:i + 1 + (leave - enter - 1) // 2], key=pos.__getitem__)
            inner[u], total = _cone_greedy(order, parent, out_adj, boosted)
        boosted[u] = weights[u] + total

    top, total = _cone_greedy(topo, parent, out_adj, boosted)
    # Chosen elements are pairwise unrelated, so their cones are disjoint
    # subtrees and every element is expanded at most once.
    result = set(top)
    stack = list(top)
    while stack:
        sub = inner.get(stack.pop(), ())
        result.update(sub)
        stack.extend(sub)
    for x in result:
        bad = out_adj[x] & result
        if bad:
            raise ContractError(
                f"solution contains the adjacent pair {x!r}, {sorted(bad)[0]!r}"
            )
    return frozenset(result), total


def max_weight_independent_set(g: Graph, weights):
    """Recognize g and solve on the witness; None when g is not a Burling
    graph.  Weights map every vertex 0..n-1 to a nonnegative integer."""
    if set(weights) != set(range(g.n)):
        raise InputError("weights must cover exactly the vertices 0..n-1")
    b = recognize(g)
    if b is None:
        return None
    return solve_indep(b, weights)
