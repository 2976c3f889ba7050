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
ancestor relation of its cover forest, which the set's relation index
builds and checks once with the index's topological order topo (b._forest,
see core.BurlingSet).  The cone of u is u's subtree minus u: the subtrees
of u's children.  solve_indep reads the index's layout of the forest
(b._spans), a postorder with roots and children in topo's order, in which
every subtree is a block of consecutive positions and which is a
topological order, an adj pair between subtrees leaving a child for a later
sibling's subtree (1 below).  The greedy's choices do not depend on which
topological order it follows (an element's residual is settled by its
in-neighbours, its choice by its out-targets, and every topological order
handles those first), so the results are those of the greedy run on each
cone's full sub-relation in any order.

Reuse lemma.  Let c be a child of u, and call c crossed when a sibling has
c as an adj-target.  Inside cone(u):
  1. Every pair into c's subtree from outside it leaves a sibling of c.
     prec pairs go up within a subtree.  An adj pair x -> y with x under
     a sibling c' has x = c': x prec c' would give y prec c' by
     adj-target-enclosed.  And c' has c as a target too, by
     adj-extends-upward, so c is crossed.
  2. An uncrossed c enters the greedy with residual w(c).  Its in-neighbours
     are the members of cone(c), none of them its adj-source
     (adj-target-enclosed), and by 1 nothing outside c's subtree reaches
     them, so their residuals are those of cone(c)'s own run.  Their sum is
     OPT(cone(c)) by Frank's theorem, which is B(c) - w(c) for the boosted
     weight B(c).
  3. Unless c is chosen, the members of cone(c) keep their cone(c)
     choices: their out-targets are c or lie in cone(c)
     (adj-target-enclosed), so with c not chosen they decide as there.
So the greedy on cone(u) runs over c alone for each uncrossed child c, its
cone's choices kept (delegated, not copied) when c is not chosen, and over
the whole subtree of each crossed child, which its siblings' deductions
change.  Deductions along prec are residual sums over blocks of the run,
and a chosen element blocks its own block.  By adj-target-enclosed no adj
pair leaves a cone, so only out_adj is walked.  The roots are the children
of one more level, whose cone is everything: 1 holds for them as well.

solve_indep checks weights once, and the relation once per set, by reading
b._forest as chordal_relation does; mwis_chordal checks a relation from
outside by its own sort and chordality check and runs the same greedy with
no forest.

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
    chosen, total = _two_phase(peo, [weights[x] for x in peo], [0] * len(peo), out)
    return frozenset(chosen), total


def _two_phase(xs, ws, ks, out) -> tuple:
    """Frank's two-phase greedy over the elements xs, in topological order,
    with weights ws.  Returns (set chosen, its weight).

    Besides the pairs out, each xs[i] has the ks[i] members just before it
    as prec-targets, its cone laid out as a block, and it is related to
    nothing else in xs.  So its prec deduction is the residual marked over
    that block, a difference of running sums, and a chosen element blocks
    its whole block.  With every ks[i] zero this is the plain two-phase
    greedy over out.
    """
    run = 0
    acc = [0] * len(xs)  # acc[i]: the residuals marked before xs[i]
    cut = {}  # deductions along out: residuals marked at in-neighbours
    marked = []
    for i, (x, w, k) in enumerate(zip(xs, ws, ks)):
        acc[i] = run
        r = w - run + acc[i - k]
        if x in cut:
            r -= cut[x]
        if r > 0:
            run += r
            marked.append(i)
            for y in out[x]:
                cut[y] = cut.get(y, 0) + r
    chosen = set()
    total = 0
    floor = len(xs)  # from here up to the last chosen: in its cone
    for i in reversed(marked):
        if i < floor and chosen.isdisjoint(out[xs[i]]):
            chosen.add(xs[i])
            total += ws[i]
            floor = i - ks[i]
    return chosen, total


def solve_indep(b: BurlingSet, weights) -> tuple:
    """Maximum-weight independent set of the Burling graph of b.

    Returns (frozenset of elements, weight).  Bottom-up over the cover
    forest's postorder, each cone solved from its children's runs (see the
    module docstring), then the roots as the children of one more level.
    """
    _check_weights(b._order, weights)
    _, _, cover = b._forest
    out_adj = b._out_adj
    post = list(b._spans)[::-1]  # the index's layout, see core.BurlingSet._spans
    cone = [(leave - enter - 1) // 2 for enter, leave in reversed(b._spans.values())]
    crossed = {y for x, ys in out_adj.items() for y in ys if cover[y] == cover[x]}
    boosted = []  # by position: weight plus the optimum inside the cone
    inner = {}  # u -> (chosen, kept) in the cone of u, see level

    def level(lo, hi) -> tuple:
        """(chosen, kept, optimum) in the block of positions lo..hi - 1, a
        cone or the whole layout, read child by child back from its end:
        chosen elements, whose cones are expanded too, and uncrossed
        children that are not chosen, whose cones keep their own choices."""
        j, children = hi - 1, []
        while j >= lo:
            children.append(j)
            j -= cone[j] + 1
        xs, ws, ks, kept = [], [], [], []
        rest = 0
        for j in reversed(children):
            c = post[j]
            if c in crossed:
                s = j - cone[j]
                xs += post[s:j + 1]
                ws += boosted[s:j + 1]
                ks += cone[s:j + 1]
            else:
                xs.append(c)
                ws.append(weights[c])
                ks.append(0)
                if cone[j]:
                    kept.append(c)
                    rest += boosted[j] - weights[c]
        chosen, total = _two_phase(xs, ws, ks, out_adj)
        return chosen, [c for c in kept if c not in chosen], total + rest

    for i, u in enumerate(post):
        total = 0
        if cone[i]:
            chosen, kept, total = level(i - cone[i], i)
            inner[u] = chosen, kept
        boosted.append(weights[u] + total)

    chosen, kept, total = level(0, len(post))
    # A run's chosen elements are pairwise unrelated, and a kept child's
    # subtree holds no other member of its run, so their cones are disjoint
    # subtrees and every element is expanded at most once.
    result = set(chosen)
    stack = [*chosen, *kept]
    while stack:
        chosen, kept = inner.get(stack.pop(), ((), ()))
        result.update(chosen)
        stack += chosen
        stack += kept
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
