"""Text and JSON formats for graphs, Burling sets, frames, and weights.

Graph text: '#' starts a comment, blank lines are skipped, the first data
line is the vertex count n with 1 <= n <= 100000 (_MAX_VERTICES; a larger
count is rejected before anything is allocated for it), and every further
line is an edge "u v" with 0 <= u < v < n, no duplicates.

Burling set JSON comes in two forms, with the same "elements": [names] and
"adj": [[a, b], ...].  The cover form, {"elements", "cover", "adj"}, gives
prec by its cover forest: one pair [x, c] for each element x that has a
cover c, x's prec-target with the most prec-targets, so that prec is the
ancestor relation of the covers.  The pair form, {"elements", "prec",
"adj"}, lists every prec pair [a, b].  A document has at most one of
"cover" and "prec", and names are strings (integers are accepted and
converted).  Whichever form it is read from, a set is held by its covers
exactly when every element is settled (see core), as in every valid set.
dump_burling_json writes the cover form for such a set and the pair form
otherwise, since covers cannot state that set's prec.  Dumps are
deterministic: sorted names, sorted pairs, fixed key order.  A text over
8 MiB (_MAX_SET_TEXT characters) is refused unparsed; a valid set's dump at
the generator's cap is under 150 kB.

Frames JSON: a list of {"id", "l", "r", "b", "t"} objects.  A text over
384 KiB (_MAX_FRAMES_TEXT characters) is refused unparsed: a column of
frames stacked in y, the sweep's worst known family, fills it with 5 340
frames, and the frames of a set at the generator's cap take under 150 kB.

Weights: one line per element, "name weight", nonnegative integers.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .core import BurlingSet, _hold, _relation
from .errors import InputError
from .frames import Frame, FrameFamily
from .graph import Graph

_MAX_VERTICES = 100_000
_MAX_SET_TEXT = 8 * 2**20
_MAX_FRAMES_TEXT = 3 * 2**17


def _parse(text: str, limit: int):
    """The JSON document in text, refused unparsed when text is longer than
    limit characters."""
    if len(text) > limit:
        raise InputError(f"text of {len(text)} characters exceeds the limit of {limit}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}")


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_graph_text(text: str) -> Graph:
    """The graph in graph text, checked as the module docstring states."""
    lines = list(_data_lines(text))
    if not lines:
        raise InputError("graph file has no data lines")
    try:
        n = int(lines[0])
    except ValueError:
        raise InputError(f"expected a vertex count, got {lines[0]!r}")
    if n < 1:
        raise InputError("vertex count must be at least 1")
    if n > _MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit of {_MAX_VERTICES}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected an edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"non-integer edge endpoints in {line!r}")
        if not u < v:
            raise InputError(f"edge {u} {v} must satisfy u < v")
        edges.append((u, v))
    # Graph checks that the endpoints are in range and the edges distinct.
    return Graph(n, edges)


def _element_name(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    raise InputError(f"element name {v!r} must be a string")


def _pair_list(raw, key: str) -> list:
    """The pairs of raw as tuples of names, walked one by one to name the
    first bad entry."""
    if not isinstance(raw, list):
        raise InputError(f"{key!r} must be a list of pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"{key!r} entry {entry!r} is not a pair")
        a, c = _element_name(entry[0]), _element_name(entry[1])
        out.append((a, c))
    return out


def _declared(raw, names: frozenset) -> bool:
    """Whether raw is a list of two-item lists of declared names, which are
    strings, so that no other check is needed."""
    try:
        return (
            isinstance(raw, list)
            and set(map(type, raw)) <= {list}
            and set(map(len, raw)) <= {2}
            and names.issuperset(chain.from_iterable(raw))
        )
    except TypeError:  # an unhashable name
        return False


def _named_pairs(raw, key: str, names: frozenset) -> list:
    """raw, the list under key, as pairs of declared names.  Checked in one
    bulk pass; only when that fails is it walked entry by entry, to name the
    first bad entry."""
    if _declared(raw, names):
        return raw
    pairs = _pair_list(raw, key)
    _relation(pairs, names, key)
    return pairs


def _cover_set(order: list, pairs, adj) -> BurlingSet:
    """The set held by the covers pairs, [x, c] for x's cover c, checked to
    give each element at most one cover and to form a forest."""
    cover = dict.fromkeys(order)
    for x, c in pairs:
        if cover[x] is not None:
            raise InputError(f"element {x!r} has more than one cover")
        cover[x] = c
    # walk up from each element until a root or an earlier walk: the first
    # walk to meet itself, from the least element on or below a cycle, names it
    walk = {None: None}
    for x in order:
        y = x
        while y not in walk:
            walk[y] = x
            y = cover[y]
        if walk[y] == x:
            path = list(walk)
            raise InputError("the covers form a cycle: " + " -> ".join(path[path.index(y):] + [y]))
    return BurlingSet._from_covers(order, cover, adj)


def load_burling_json(text: str) -> BurlingSet:
    """The Burling set in Burling set JSON, of either form; the axioms are
    not checked.

    Each list is checked in one bulk pass against the declared names.  A
    set given by covers is held by them once they are checked to form a
    forest, so that prec is valid by construction; one given by pairs is
    held as the constructor would hold it (core._hold)."""
    doc = _parse(text, _MAX_SET_TEXT)
    if not isinstance(doc, dict) or "elements" not in doc:
        raise InputError("expected an object with an 'elements' list")
    raw_elements = doc["elements"]
    if not isinstance(raw_elements, list):
        raise InputError("'elements' must be a list")
    names = raw_elements
    if not set(map(type, names)) <= {str}:
        names = [_element_name(v) for v in raw_elements]
    elements = frozenset(names)
    if len(elements) != len(names):
        raise InputError("duplicate element names")
    if not elements:
        raise InputError("a Burling set needs at least one element")
    if "cover" in doc:
        if "prec" in doc:
            raise InputError("a document may not have both 'prec' and 'cover'")
        cover = _named_pairs(doc["cover"], "cover", elements)
        adj = _named_pairs(doc.get("adj", []), "adj", elements)
        return _cover_set(sorted(elements), cover, adj)
    prec = _named_pairs(doc.get("prec", []), "prec", elements)
    adj = _named_pairs(doc.get("adj", []), "adj", elements)
    return _hold(sorted(elements), adj, prec)


def _array(items: list, depth: int) -> str:
    """The JSON array of items (each already JSON text), laid out as
    json.dumps(..., indent=1) lays out an array at nesting depth depth."""
    if not items:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * depth + "]"


def _pairs(relation) -> str:
    """The relation's pairs, named and sorted, as the "cover", "prec" or
    "adj" array of a dump."""
    named = sorted((str(a), str(c)) for a, c in relation)
    return _array([f"[\n   {_quote(a)},\n   {_quote(c)}\n  ]" for a, c in named], 1)


def _dump(b: BurlingSet, key: str, pairs) -> str:
    """The document of b's elements, pairs under key and adj pairs."""
    elements = _array([_quote(str(x)) for x in b.ordered()], 1)
    return (
        f'{{\n "elements": {elements},\n "{key}": {_pairs(pairs)},\n'
        f' "adj": {_pairs(b.adj)}\n}}'
    )


def _pair_form(b: BurlingSet) -> str:
    """The pair form of b, which dump_burling_json writes for a set with an
    element that is not settled."""
    return _dump(b, "prec", b.prec)


def dump_burling_json(b: BurlingSet) -> str:
    """Burling set JSON of b, names as strings, names and pairs sorted: the
    cover form when every element is settled, else the pair form.

    The text is json.dumps(doc, indent=1) of the document, written out
    directly: most of a dump is its pairs, and the encoder would lay out
    each one in Python."""
    if not b._by_covers:
        return _pair_form(b)
    return _dump(b, "cover", ((x, c) for x, c in b._cover.items() if c is not None))


def frame_records(text: str) -> list:
    """Structural parse of frames JSON into (id, l, r, b, t) tuples.
    Coordinate types and geometric validity are left to the Frame
    constructor.  A text over _MAX_FRAMES_TEXT characters is refused
    unparsed."""
    doc = _parse(text, _MAX_FRAMES_TEXT)
    if not isinstance(doc, list):
        raise InputError("expected a list of frame objects")
    records = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise InputError(f"frame entry {entry!r} is not an object")
        missing = {"id", "l", "r", "b", "t"} - set(entry)
        if missing:
            raise InputError(f"frame entry missing keys {sorted(missing)}")
        records.append(
            (_element_name(entry["id"]), entry["l"], entry["r"], entry["b"], entry["t"])
        )
    return records


def load_frames_json(text: str) -> FrameFamily:
    """The frame family in frames JSON, ids as strings."""
    return FrameFamily(Frame(*rec) for rec in frame_records(text))


def dump_frames_json(family: FrameFamily) -> str:
    """Frames JSON of the family, one object per frame in id order, laid
    out as json.dumps(..., indent=1) lays it out."""
    return _array(
        [
            f'{{\n  "id": {_quote(str(f.id))},\n  "l": {f.l:d},\n  "r": {f.r:d},\n'
            f'  "b": {f.b:d},\n  "t": {f.t:d}\n }}'
            for f in family
        ],
        0,
    )


def parse_weights(text: str, names) -> dict:
    """Weights for exactly the given names; every name must appear once."""
    expected = set(names)
    weights = {}
    for line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected 'name weight', got {line!r}")
        name, tok = parts
        if name not in expected:
            raise InputError(f"unknown element {name!r} in weights")
        if name in weights:
            raise InputError(f"duplicate weight for {name!r}")
        try:
            w = int(tok)
        except ValueError:
            raise InputError(f"weight {tok!r} is not an integer")
        if w < 0:
            raise InputError(f"weight of {name!r} is negative")
        weights[name] = w
    missing = expected - set(weights)
    if missing:
        raise InputError(f"no weight given for {sorted(missing)[0]!r}")
    return weights
