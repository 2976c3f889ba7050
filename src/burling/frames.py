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
on prec's cover forest and adj, of a size linear in |S| plus the covers
and |adj|; vertical coordinates are enter/leave times of core._dfs, the
index's one forest walk, on the forest of the combined relation.  Both
forests come from the set's relation index (see core.BurlingSet), and the
horizontal system is sorted by the same smallest-first Kahn sort.
extract_burling inverts the construction for any strict family.  It,
verify_strict and intersection_graph read one sweep in x over the frames,
kept by the family, which compares only frames that overlap in x, checks
each crossing only against the frames whose left side lies inside it,
and reports each frame's cover, the smallest frame holding it, rather
than every nesting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from .core import BurlingSet, VerificationReport, Violation, _dfs, _topo_sort
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
    """Frames with distinct, mutually comparable ids, in general position.

    General position means no corner of one frame lies on another frame;
    every intersection of two boundaries is then a clean crossing of edge
    segments, so intersection and nesting are decided by coordinate
    comparisons alone.

    Stated on sides: on every vertical line x = v and every horizontal line
    y = v, the sides of different frames that lie on it are pairwise
    disjoint.  A corner of f on g lies on a side of g and on the side of f
    along the same line; conversely two collinear sides meet exactly when an
    end of one, a corner, lies on the other.  A frame's two parallel sides
    never share a line, since l < r and b < t.  The check sorts the sides
    on lines holding two sides or more (a built family has none) by line
    and start and compares neighbours only: if no side meets the next one
    on its line, each side ends before the next starts, so no two sides on
    the line meet.  The family is immutable and keeps the one sweep (_scan)
    that verify_strict, extract_burling and intersection_graph read.
    """

    __slots__ = ("_frames", "_sweep")

    def __init__(self, frames):
        frames = list(frames)
        try:
            frames.sort(key=lambda f: f.id)
        except TypeError:
            raise InputError("frame ids must be mutually comparable") from None
        seen = set()
        for f in frames:
            if f.id in seen:
                raise InputError(f"duplicate frame id {f.id!r}")
            seen.add(f.id)
        # (axis, line, start, end, index): axis 0 is vertical sides on
        # x = line, axis 1 horizontal sides on y = line.
        n = len(frames)
        sides = []
        for axis, lines in enumerate((
            [f.l for f in frames] + [f.r for f in frames],
            [f.b for f in frames] + [f.t for f in frames],
        )):
            if len(set(lines)) < 2 * n:
                shared = {v for v, k in Counter(lines).items() if k > 1}
                for k, v in enumerate(lines):
                    if v in shared:
                        f = frames[k % n]
                        ends = (f.b, f.t) if axis == 0 else (f.l, f.r)
                        sides.append((axis, v, *ends, k % n))
        sides.sort()
        for (axis, v, _, end, i), (axis2, v2, start, _, j) in zip(sides, sides[1:]):
            if (axis2, v2) == (axis, v) and start <= end:
                x, y = (v, start) if axis == 0 else (start, v)
                raise InputError(
                    f"corner ({x}, {y}) of frame {frames[j].id!r} "
                    f"lies on frame {frames[i].id!r}"
                )
        self._frames = tuple(frames)
        self._sweep = None

    @property
    def frames(self) -> tuple:
        """The frames in id order."""
        return self._frames

    def _swept(self) -> tuple:
        """_scan of the frames, run on first use."""
        if self._sweep is None:
            self._sweep = _scan(self._frames)
        return self._sweep

    def __iter__(self):
        return iter(self._frames)

    def __len__(self):
        return len(self._frames)

    def __eq__(self, other):
        return isinstance(other, FrameFamily) and self._frames == other._frames

    def __repr__(self):
        return f"FrameFamily({len(self._frames)} frames)"


def frames_intersect(f: Frame, g: Frame) -> bool:
    """Whether the two boundaries share a point.

    The closed boxes must overlap, and neither frame may sit strictly inside
    the other's open interior (nested frames do not touch).  Kept as the
    definition that _scan and the tests follow.
    """
    if f.r < g.l or g.r < f.l or f.t < g.b or g.t < f.b:
        return False
    return not _inside(f, g) and not _inside(g, f)


def _inside(f: Frame, g: Frame) -> bool:
    """f sits strictly inside the open interior of g."""
    return g.l < f.l and f.r < g.r and g.b < f.b and f.t < g.t


def _scan(fs) -> tuple:
    """Every pair of frames fs whose closed boxes overlap, classified, as
    pairs of ids: verify_strict's report, the pairs (f, g) where g escapes
    f through its right side, the pairs (f, c) where c is the last frame in
    the sweep that holds f, in the sweep's order, and the pairs, in the
    order of fs, whose boundaries meet in any other way, as frames_intersect
    says.

    A sweep in x: with the frames sorted by left side, the frames whose box
    overlaps f's in x and that come after f are those whose left side lies
    in [f.l, f.r], a window found by bisection.  As g.l >= f.l, only g can
    sit inside f and only g can escape f.  A crossing (f, g) is checked
    against the frames h with g.l < h.l < f.r, the only ones that can
    escalate it, in a second window.  Pairs and triples are sorted back into
    the order of fs, so the report lists them as a pair loop over fs would.
    In a strict family the frames that hold f form a chain (a frame inside
    two crossing frames escalates their crossing), so the last is f's
    cover, and nesting is the covers' ancestor relation.  The cost is
    O(n log n) plus the pairs that overlap in x and the triple windows.
    """
    boxes = sorted((f.l, f.r, f.b, f.t, i, f.id) for i, f in enumerate(fs))
    lefts = [box[0] for box in boxes]
    crossings = []
    cover = {}
    meets = []
    escalated = []  # (min(i, j), max(i, j), f, g, hits) for crossings (f, g)
    for k, (l, r, b, t, i, f) in enumerate(boxes):
        for l2, r2, b2, t2, j, g in boxes[k + 1:bisect_right(lefts, r, k + 1)]:
            if t < b2 or t2 < b:
                continue  # the boxes are apart
            if l < l2 and r2 < r and b < b2 and t2 < t:
                cover[g] = f
            elif l < l2 and r < r2 and b < b2 and t2 < t:
                crossings.append((f, g))
                lo = bisect_right(lefts, l2, k + 1)
                hits = [
                    h
                    for _, _, hb, ht, h, _ in boxes[lo:bisect_left(lefts, r, lo)]
                    if b2 < hb and ht < t2
                ]
                if hits:
                    escalated.append((min(i, j), max(i, j), f, g, sorted(hits)))
            else:
                meets.append((i, j, f, g) if i < j else (j, i, g, f))
    # Index pairs are unique, so these sorts never compare ids.
    meets = [(f, g) for _, _, f, g in sorted(meets)]
    escalated.sort()
    viols = [Violation("pair-pattern", pair) for pair in meets]
    viols.extend(
        Violation("triple-pattern", (f, g, fs[h].id))
        for _, _, f, g, hits in escalated
        for h in hits
    )
    covers = [(f, cover[f]) for *_, f in boxes if f in cover]
    return VerificationReport(tuple(viols)), crossings, covers, meets


def verify_strict(family: FrameFamily) -> VerificationReport:
    """Check strictness: pair patterns and the three-frame escalation, by
    the family's sweep in x (see _scan)."""
    return family._swept()[0]


def extract_burling(family: FrameFamily) -> BurlingSet:
    """The Burling set realized by a strict family: nesting gives prec,
    crossing gives adj, and the set is held by the sweep's covers (see
    core).  Strict families and Burling sets describe the same graphs, so
    the result is not verified again."""
    fs = family.frames
    report, crossings, covers, _ = family._swept()
    if not report.ok:
        raise InputError(f"family is not strict: {report.lines()[0]}")
    if not fs:
        raise InputError("cannot extract from an empty family")
    cover = dict.fromkeys(f.id for f in fs)
    cover.update(covers)
    return BurlingSet._from_covers(list(cover), cover, [(g, f) for f, g in crossings])


def intersection_graph(family: FrameFamily) -> Graph:
    """One vertex per frame in id order, an edge per intersecting pair: the
    crossings and the other meeting pairs of the family's sweep, since
    nested frames are the only overlapping boxes whose boundaries do not
    meet.  Only the tests call it."""
    fs = family.frames
    _, crossings, _, meets = family._swept()
    index = {f.id: i for i, f in enumerate(fs)}
    return Graph(len(fs), ((index[f], index[g]) for f, g in crossings + meets))


# Horizontal symbols for element index i: left = 2i, right = 2i + 1.


def horizontal_constraints(b: BurlingSet) -> list:
    """The strictly-less-than constraints on horizontal symbols, as ordered
    pairs (smaller symbol, larger symbol), in the order they are built.  A
    constraint may repeat; horizontal_order's smallest-first Kahn sort
    gives the same order for any order or repetition of its edges.

    For every cover a of c in prec's cover forest and every adj pair a, c,
    l_c < l_a < r_c; r_a < r_c for a cover and r_c < r_a across adj; and
    whenever y is a child or an adj-in-neighbour of z and x is z's last
    adj-target in the set's topological order, x lies entirely left of y.
    z's adj-targets form a prec-chain with x on top, so the rest follow.
    Left sides fall and right sides rise down the forest, so all of these
    imply the same for prec's closure.  The count is linear in |S| plus the
    covers and |adj|.
    """
    order = b._order
    idx = {x: i for i, x in enumerate(order)}
    topo, _, up = b._forest
    pos = {x: i for i, x in enumerate(topo)}
    out_adj = b._out_adj
    # z -> the right symbol of z's last adj-target, for z with adj-targets
    escape = {z: 2 * idx[max(ts, key=pos.__getitem__)] + 1 for z, ts in out_adj.items() if ts}
    cons = []
    for i, a in enumerate(order):
        cons.append((2 * i, 2 * i + 1))
        c = up[a]
        if c is not None:
            cons.append((2 * idx[c], 2 * i))  # l_c < l_a since a prec c
            cons.append((2 * i, 2 * idx[c] + 1))  # l_a < r_c
            cons.append((2 * i + 1, 2 * idx[c] + 1))
            if c in escape:
                cons.append((escape[c], 2 * i))
    for a, c in b.adj:
        cons.append((2 * idx[c], 2 * idx[a]))
        cons.append((2 * idx[a], 2 * idx[c] + 1))
        cons.append((2 * idx[c] + 1, 2 * idx[a] + 1))
        if c in escape:
            cons.append((escape[c], 2 * idx[a]))
    return cons


def horizontal_order(b: BurlingSet) -> dict:
    """Map each element to its (left, right) coordinates, values 1..2|S|."""
    order = b.ordered()
    succ = [[] for _ in range(2 * len(order))]
    for a, c in horizontal_constraints(b):
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
    and top are its enter and leave times in core._dfs, which visits roots
    and children in ascending element order, so related elements nest and
    unrelated ones get disjoint spans.
    """
    return _dfs(b._order, b._forest[1])


def build_frames(b: BurlingSet, linear: bool = False) -> FrameFamily:
    """A strict frame family realizing b, integer coordinates 1..2|S|.
    linear is ignored, kept for callers that still pass it."""
    horiz = horizontal_order(b)
    vert = vertical_order(b)
    return FrameFamily(
        Frame(x, horiz[x][0], horiz[x][1], vert[x][0], vert[x][1])
        for x in b.ordered()
    )
