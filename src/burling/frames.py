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
topological sort of a constraint system over the symbols l_x, r_x, stated
on prec's cover forest; vertical coordinates are DFS enter/exit times on
the parent forest of the combined relation.  Both forests come from the
set's relation index (see core.BurlingSet), and the horizontal system is
sorted by the same smallest-first Kahn sort.
extract_burling inverts the construction for any strict family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BurlingSet, VerificationReport, Violation, _topo_sort
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


class FrameFamily:
    """Frames with distinct ids, in general position.

    General position means no corner of one frame lies on another frame;
    every intersection of two boundaries is then a clean crossing of edge
    segments, so intersection and nesting are decided by coordinate
    comparisons alone.

    Stated on sides: on every vertical line x = v and every horizontal line
    y = v, the sides of different frames that lie on it are pairwise
    disjoint.  A corner of f on g lies on a side of g and on the side of f
    along the same line; conversely two collinear sides meet exactly when an
    end of one, a corner, lies on the other.  A frame's two parallel sides
    never share a line, since l < r and b < t.  The check sorts the sides by
    line and start and compares neighbours only: if no side meets the next
    one on its line, each side ends before the next starts, so no two sides
    on the line meet.
    """

    __slots__ = ("frames",)

    def __init__(self, frames):
        frames = sorted(frames, key=lambda f: f.id)
        seen = set()
        for f in frames:
            if f.id in seen:
                raise InputError(f"duplicate frame id {f.id!r}")
            seen.add(f.id)
        # (axis, line, start, end, index): axis 0 is vertical sides on
        # x = line, axis 1 horizontal sides on y = line.
        sides = sorted(
            side
            for i, f in enumerate(frames)
            for side in (
                (0, f.l, f.b, f.t, i),
                (0, f.r, f.b, f.t, i),
                (1, f.b, f.l, f.r, i),
                (1, f.t, f.l, f.r, i),
            )
        )
        for (axis, v, _, end, i), (axis2, v2, start, _, j) in zip(sides, sides[1:]):
            if (axis2, v2) == (axis, v) and start <= end:
                x, y = (v, start) if axis == 0 else (start, v)
                raise InputError(
                    f"corner ({x}, {y}) of frame {frames[j].id!r} "
                    f"lies on frame {frames[i].id!r}"
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
    return not _inside(f, g) and not _inside(g, f)


def _inside(f: Frame, g: Frame) -> bool:
    """f sits strictly inside the open interior of g."""
    return g.l < f.l and f.r < g.r and g.b < f.b and f.t < g.t


def _crossing(f: Frame, g: Frame) -> bool:
    """g escapes f through its right side: the one allowed intersection."""
    return (
        f.l < g.l < f.r < g.r
        and f.b < g.b < g.t < f.t
    )


def _scan(fs) -> tuple:
    """One pass over the pairs of frames fs: verify_strict's report, the
    pairs (f, g) where g escapes f and the pairs (f, g) where f sits inside g."""
    viols = []
    crossings = []
    nestings = []
    for i, f in enumerate(fs):
        for g in fs[i + 1:]:
            if f.r < g.l or g.r < f.l or f.t < g.b or g.t < f.b:
                continue  # the boxes are apart
            if _inside(f, g):
                nestings.append((f, g))
            elif _inside(g, f):
                nestings.append((g, f))
            elif _crossing(f, g):
                crossings.append((f, g))
            elif _crossing(g, f):
                crossings.append((g, f))
            else:  # the boundaries meet, as frames_intersect says
                viols.append(Violation("pair-pattern", (f.id, g.id)))
    for f, g in crossings:
        for h in fs:
            if h.id == f.id or h.id == g.id:
                continue
            if g.l < h.l < f.r and g.b < h.b and h.t < g.t:
                viols.append(Violation("triple-pattern", (f.id, g.id, h.id)))
    return VerificationReport(tuple(viols)), crossings, nestings


def verify_strict(family: FrameFamily) -> VerificationReport:
    """Check strictness: pair patterns and the three-frame escalation."""
    return _scan(family.frames)[0]


def extract_burling(family: FrameFamily) -> BurlingSet:
    """The Burling set realized by a strict family: nesting gives prec,
    crossing gives adj.  Strict families and Burling sets describe the same
    graphs, so the result is not verified again."""
    fs = family.frames
    report, crossings, nestings = _scan(fs)
    if not report.ok:
        raise InputError(f"family is not strict: {report.lines()[0]}")
    if not fs:
        raise InputError("cannot extract from an empty family")
    return BurlingSet(
        (f.id for f in fs),
        ((f.id, g.id) for f, g in nestings),
        ((g.id, f.id) for f, g in crossings),
    )


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

    For every cover a of c in prec's cover forest and every adj pair a, c,
    l_c < l_a < r_c; r_a < r_c for a cover and r_c < r_a across adj; and
    whenever y is a child or an adj-in-neighbour of some z that crosses out
    of x, x lies entirely left of y.  Left sides fall and right sides rise
    down the forest, so these imply the same for all of prec's closure.  In
    linear mode that last group is emitted only for the prec-maximal
    crossing, which the others follow from; the count is then linear in |S|
    plus the covers and |adj|.  Both modes give the same horizontal_order.
    """
    order = b._order
    idx = {x: i for i, x in enumerate(order)}
    up = b._forest[2]
    out_prec = b._prec_maps[0]
    out_adj, in_adj = b._adj_maps
    cons = set()
    children = {x: [] for x in order}
    for i, a in enumerate(order):
        cons.add((2 * i, 2 * i + 1))
        c = up[a]
        if c is not None:
            children[c].append(a)
            cons.add((2 * idx[c], 2 * i))  # l_c < l_a since a prec c
            cons.add((2 * i, 2 * idx[c] + 1))  # l_a < r_c
            cons.add((2 * i + 1, 2 * idx[c] + 1))
    for a, c in b.adj:
        cons.add((2 * idx[c], 2 * idx[a]))
        cons.add((2 * idx[a], 2 * idx[c] + 1))
        cons.add((2 * idx[c] + 1, 2 * idx[a] + 1))
    for z in order:
        targets = out_adj[z]
        if not targets:
            continue
        escapes = in_adj[z].union(children[z])
        if linear and escapes:
            targets = [_prec_max(out_prec, targets)]
        for x in targets:
            for y in escapes:
                cons.add((2 * idx[x] + 1, 2 * idx[y]))
    return sorted(cons)


def _prec_max(out_prec, targets) -> object:
    """The prec-greatest member of a set of adj-targets of one element.

    Such targets form a prec-chain in a valid set; its top has the fewest
    prec-targets.
    """
    top = min(targets, key=lambda t: len(out_prec[t]))
    if any(u != top and top not in out_prec[u] for u in targets):
        raise ContractError(
            f"adjacency targets {sorted(targets)!r} are not totally ordered"
        )
    return top


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

    Every non-root element has a unique parent: its parent in the forest of
    the combined relation (b._forest, see core.BurlingSet), the first of its
    targets in topological order, and every target is an ancestor.  Bottom
    and top are DFS enter and exit times on that forest, visiting roots and
    children in ascending element order, so related elements nest and
    unrelated ones get disjoint spans.
    """
    order = b._order
    _, parent, _ = b._forest
    roots = []
    children = {x: [] for x in order}
    for x in order:
        p = parent[x]
        if p is None:
            roots.append(x)
        else:
            children[p].append(x)

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
