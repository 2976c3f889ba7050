"""Rectangle-boundary (frame) representations of Burling sets.

A frame is the boundary of an axis-parallel rectangle.  A family of frames
is strict when every intersecting pair forms the crossing pattern
l1 < l2 < r1 < r2, b1 < b2 < t2 < t1 (one frame escaping another through its
right side) and no three frames escalate that pattern (the nested-crossing
configuration checked by verify_strict).  Strict families and Burling sets
describe the same graphs: a pair x prec y is drawn as strict nesting of the
frame of x inside the frame of y, and x adj y as the crossing pattern with x
escaping y.

build_frames realizes a Burling set as such a family with integer
coordinates 1..2|S| per axis.  Horizontal coordinates come from a
topological sort of a constraint system over the symbols l_x, r_x; vertical
coordinates are DFS enter/exit times on the parent forest of the combined
relation.  Both read the relation maps and the topological order from the
set's relation index (see core.BurlingSet), and the horizontal system is
sorted by the same smallest-first Kahn sort.  extract_burling inverts the
construction for any strict family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BurlingSet,
    VerificationReport,
    Violation,
    _topo_sort,
    verify_axioms,
)
from .errors import ContractError, InputError
from .graph import Graph


@dataclass(frozen=True)
class Frame:
    """Boundary of the axis-parallel rectangle [l, r] x [b, t]."""

    id: object
    l: int
    r: int
    b: int
    t: int

    def __post_init__(self):
        for v in (self.l, self.r, self.b, self.t):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"frame {self.id!r}: coordinates must be integers")
        if not self.l < self.r:
            raise InputError(f"frame {self.id!r}: left must be below right")
        if not self.b < self.t:
            raise InputError(f"frame {self.id!r}: bottom must be below top")

    def corners(self):
        return (
            (self.l, self.b),
            (self.l, self.t),
            (self.r, self.b),
            (self.r, self.t),
        )


def _point_on_frame(x, y, f: Frame) -> bool:
    on_vertical = x in (f.l, f.r) and f.b <= y <= f.t
    on_horizontal = y in (f.b, f.t) and f.l <= x <= f.r
    return on_vertical or on_horizontal


class FrameFamily:
    """Frames with distinct ids, in general position.

    General position means no corner of one frame lies on another frame;
    every intersection of two boundaries is then a clean crossing of edge
    segments, so intersection and nesting are decided by coordinate
    comparisons alone.
    """

    __slots__ = ("frames",)

    def __init__(self, frames):
        frames = sorted(frames, key=lambda f: f.id)
        seen = set()
        for f in frames:
            if f.id in seen:
                raise InputError(f"duplicate frame id {f.id!r}")
            seen.add(f.id)
        for f in frames:
            for g in frames:
                if f.id == g.id:
                    continue
                for x, y in f.corners():
                    if _point_on_frame(x, y, g):
                        raise InputError(
                            f"corner ({x}, {y}) of frame {f.id!r} lies on frame {g.id!r}"
                        )
        self.frames = tuple(frames)

    def __iter__(self):
        return iter(self.frames)

    def __len__(self):
        return len(self.frames)

    def __eq__(self, other):
        return isinstance(other, FrameFamily) and self.frames == other.frames

    def __repr__(self):
        return f"FrameFamily({len(self.frames)} frames)"


def frames_intersect(f: Frame, g: Frame) -> bool:
    """Whether the two boundaries share a point.

    The closed boxes must overlap, and neither frame may sit strictly inside
    the other's open interior (nested frames do not touch).
    """
    if f.r < g.l or g.r < f.l or f.t < g.b or g.t < f.b:
        return False
    f_inside = g.l < f.l and f.r < g.r and g.b < f.b and f.t < g.t
    g_inside = f.l < g.l and g.r < f.r and f.b < g.b and g.t < f.t
    return not f_inside and not g_inside


def _crossing(f: Frame, g: Frame) -> bool:
    """g escapes f through its right side: the one allowed intersection."""
    return (
        f.l < g.l < f.r < g.r
        and f.b < g.b < g.t < f.t
    )


def verify_strict(family: FrameFamily) -> VerificationReport:
    """Check strictness: pair patterns and the three-frame escalation."""
    fs = family.frames
    viols = []
    crossing_pairs = []
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            if _crossing(f, g):
                crossing_pairs.append((f, g))
            elif _crossing(g, f):
                crossing_pairs.append((g, f))
            elif frames_intersect(f, g):
                viols.append(Violation("pair-pattern", (f.id, g.id)))
    for f, g in crossing_pairs:
        for h in fs:
            if h.id == f.id or h.id == g.id:
                continue
            if g.l < h.l < f.r and g.b < h.b and h.t < g.t:
                viols.append(Violation("triple-pattern", (f.id, g.id, h.id)))
    return VerificationReport(tuple(viols))


def extract_burling(family: FrameFamily) -> BurlingSet:
    """The Burling set realized by a strict family: nesting gives prec,
    crossing gives adj."""
    report = verify_strict(family)
    if not report.ok:
        raise InputError(f"family is not strict: {report.lines()[0]}")
    if not family.frames:
        raise InputError("cannot extract from an empty family")
    prec = []
    adj = []
    fs = family.frames
    for f in fs:
        for g in fs:
            if f.id == g.id:
                continue
            if g.l < f.l < f.r < g.r and g.b < f.b < f.t < g.t:
                prec.append((f.id, g.id))
            elif _crossing(g, f):
                adj.append((f.id, g.id))
    b = BurlingSet((f.id for f in fs), prec, adj)
    check = verify_axioms(b)
    if not check.ok:
        raise ContractError(f"extracted relations break axioms: {check.lines()[0]}")
    return b


def intersection_graph(family: FrameFamily) -> Graph:
    """One vertex per frame in id order, an edge per intersecting pair."""
    fs = family.frames
    edges = []
    for i, f in enumerate(fs):
        for j in range(i + 1, len(fs)):
            if frames_intersect(f, fs[j]):
                edges.append((i, j))
    return Graph(len(fs), edges)


# Horizontal symbols for element index i: left = 2i, right = 2i + 1.


def horizontal_constraints(b: BurlingSet, linear: bool = False) -> list:
    """The strictly-less-than constraints on horizontal symbols, as ordered
    pairs (smaller symbol, larger symbol), deduplicated and sorted.

    For every pair y related to x (either relation), the left side of x is
    left of the left side of y, and the left side of y is left of the right
    side of x; right sides are ordered by prec and reversed across adj; and
    whenever y is related to some z that crosses out of x, x lies entirely
    left of y.  In linear mode that last group is emitted only for the
    prec-maximal crossing, which the others follow from; the constraint
    count is then linear in |S| plus the relation size.
    """
    order = b._order
    idx = {x: i for i, x in enumerate(order)}
    _, in_rel = b._rel_maps
    out_adj, _ = b._adj_maps
    cons = set()
    for i in range(len(order)):
        cons.add((2 * i, 2 * i + 1))
    for a, c in b.prec | b.adj:
        cons.add((2 * idx[c], 2 * idx[a]))  # l_c < l_a since a rel c
        cons.add((2 * idx[a], 2 * idx[c] + 1))  # l_a < r_c
    for a, c in b.prec:
        cons.add((2 * idx[a] + 1, 2 * idx[c] + 1))
    for a, c in b.adj:
        cons.add((2 * idx[c] + 1, 2 * idx[a] + 1))
    for z in order:
        targets = out_adj[z]
        if not targets or not in_rel[z]:
            continue
        if linear:
            targets = [_prec_max(b, targets)]
        for x in targets:
            for y in in_rel[z]:
                cons.add((2 * idx[x] + 1, 2 * idx[y]))
    return sorted(cons)


def _prec_max(b: BurlingSet, targets) -> object:
    """The prec-greatest member of a set of adj-targets of one element.

    Such targets are totally ordered by prec in a valid Burling set.
    """
    for t in targets:
        if all(u == t or (u, t) in b.prec for u in targets):
            return t
    raise ContractError(
        f"adjacency targets {sorted(targets)!r} are not totally ordered"
    )


def horizontal_order(b: BurlingSet, linear: bool = False) -> dict:
    """Map each element to its (left, right) coordinates, values 1..2|S|."""
    order = b.ordered()
    succ = [[] for _ in range(2 * len(order))]
    for a, c in horizontal_constraints(b, linear):
        succ[a].append(c)
    symbols = _topo_sort(range(len(succ)), succ)
    if symbols is None:
        raise ContractError("cycle in the horizontal constraint system")
    values = {v: value for value, v in enumerate(symbols, 1)}
    return {x: (values[2 * i], values[2 * i + 1]) for i, x in enumerate(order)}


def vertical_order(b: BurlingSet) -> dict:
    """Map each element to its (bottom, top) coordinates, values 1..2|S|.

    Every non-root element has a unique parent: the nearest element above it
    in the combined relation.  Bottom and top are DFS enter and exit times
    on that forest, visiting roots and children in ascending element order,
    so related elements nest and unrelated ones get disjoint spans.
    """
    order = b._order
    out_rel, _ = b._rel_maps
    if b._topo is None:
        raise ContractError("cycle in the combined relation")
    rank_of = {x: i for i, x in enumerate(b._topo)}
    roots = []
    children = {x: [] for x in order}
    for x in order:
        targets = out_rel[x]
        if not targets:
            roots.append(x)
            continue
        chain = sorted(targets, key=lambda z: rank_of[z])
        if all(chain[k + 1] in out_rel[chain[k]] for k in range(len(chain) - 1)):
            parent = chain[0]
        else:
            candidates = [
                z for z in chain
                if not any(z in out_rel[y] for y in targets if y != z)
            ]
            if len(candidates) != 1:
                raise ContractError(
                    f"element {x!r} has {len(candidates)} parents in the relation forest"
                )
            parent = candidates[0]
        children[parent].append(x)

    vals = {}
    clock = 1
    for root in roots:
        stack = [(root, iter(children[root]))]
        enter = {root: clock}
        clock += 1
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                vals[node] = (enter[node], clock)
                clock += 1
                stack.pop()
            else:
                enter[child] = clock
                clock += 1
                stack.append((child, iter(children[child])))
    return vals


def build_frames(b: BurlingSet, linear: bool = False) -> FrameFamily:
    """A strict frame family realizing b, integer coordinates 1..2|S|."""
    horiz = horizontal_order(b, linear)
    vert = vertical_order(b)
    return FrameFamily(
        Frame(x, horiz[x][0], horiz[x][1], vert[x][0], vert[x][1])
        for x in b.ordered()
    )
