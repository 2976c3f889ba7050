"""Text and JSON formats for graphs, Burling sets, frames, and weights.

Graph text: '#' starts a comment, blank lines are skipped, the first data
line is the vertex count n with 1 <= n <= 100000 (_MAX_VERTICES; a larger
count is rejected before anything is allocated for it), and every further
line is an edge "u v" with 0 <= u < v < n, no duplicates.

Burling set JSON: {"elements": [names], "prec": [[a, b], ...],
"adj": [[a, b], ...]}.  Names are strings (integers are accepted and
converted).  Dumps are deterministic: sorted names, sorted pairs, fixed
key order.

Frames JSON: a list of {"id", "l", "r", "b", "t"} objects.

Weights: one line per element, "name weight", nonnegative integers.
"""

from __future__ import annotations

import json

from .core import BurlingSet
from .errors import InputError
from .frames import Frame, FrameFamily
from .graph import Graph

_MAX_VERTICES = 100_000


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_graph_text(text: str) -> Graph:
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
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"expected an edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"non-integer edge endpoints in {line!r}")
        if not 0 <= u < v < n:
            raise InputError(f"edge {u} {v} must satisfy 0 <= u < v < {n}")
        if (u, v) in seen:
            raise InputError(f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def _element_name(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    raise InputError(f"element name {v!r} must be a string")


def _pair_list(raw, key: str, names) -> list:
    if not isinstance(raw, list):
        raise InputError(f"{key!r} must be a list of pairs")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"{key!r} entry {entry!r} is not a pair")
        a, c = _element_name(entry[0]), _element_name(entry[1])
        out.append((a, c))
    return out


def load_burling_json(text: str) -> BurlingSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}")
    if not isinstance(doc, dict) or "elements" not in doc:
        raise InputError("expected an object with an 'elements' list")
    raw_elements = doc["elements"]
    if not isinstance(raw_elements, list):
        raise InputError("'elements' must be a list")
    names = [_element_name(v) for v in raw_elements]
    if len(set(names)) != len(names):
        raise InputError("duplicate element names")
    prec = _pair_list(doc.get("prec", []), "prec", names)
    adj = _pair_list(doc.get("adj", []), "adj", names)
    return BurlingSet(names, prec, adj)


def dump_burling_json(b: BurlingSet) -> str:
    doc = {
        "elements": [str(x) for x in b.ordered()],
        "prec": sorted([str(a), str(c)] for a, c in b.prec),
        "adj": sorted([str(a), str(c)] for a, c in b.adj),
    }
    return json.dumps(doc, indent=1)


def frame_records(text: str) -> list:
    """Structural parse of frames JSON into (id, l, r, b, t) tuples.
    Geometric validity is left to the Frame constructor."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}")
    if not isinstance(doc, list):
        raise InputError("expected a list of frame objects")
    records = []
    for entry in doc:
        if not isinstance(entry, dict):
            raise InputError(f"frame entry {entry!r} is not an object")
        missing = {"id", "l", "r", "b", "t"} - set(entry)
        if missing:
            raise InputError(f"frame entry missing keys {sorted(missing)}")
        coords = []
        for key in ("l", "r", "b", "t"):
            v = entry[key]
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"frame coordinate {key}={v!r} must be an integer")
            coords.append(v)
        records.append((_element_name(entry["id"]),) + tuple(coords))
    return records


def load_frames_json(text: str) -> FrameFamily:
    return FrameFamily(Frame(*rec) for rec in frame_records(text))


def dump_frames_json(family: FrameFamily) -> str:
    doc = [
        {"id": str(f.id), "l": f.l, "r": f.r, "b": f.b, "t": f.t}
        for f in family
    ]
    return json.dumps(doc, indent=1)


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
