"""Digraph file format and its structured (JSON) variant.

Text format: ``#`` starts a comment; the first non-comment line is the vertex
count m; each following line is ``i j k`` for k parallel edges i -> j with
1-based labels, k defaulting to 1.
"""

from __future__ import annotations

from .digraph import MultiDigraph
from .errors import ParameterRangeError


def parse_digraph(text: str) -> MultiDigraph:
    m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = [int(f) for f in line.split()]
        except ValueError:
            raise ParameterRangeError(f"line {lineno}: expected integers, got {line!r}") from None
        if m is None:
            if len(fields) != 1:
                raise ParameterRangeError(f"line {lineno}: expected the vertex count alone")
            m = fields[0]
            if m < 1:
                raise ParameterRangeError(f"line {lineno}: vertex count must be >= 1")
            continue
        if len(fields) not in (2, 3):
            raise ParameterRangeError(f"line {lineno}: expected 'i j' or 'i j k'")
        i, j = fields[0], fields[1]
        k = fields[2] if len(fields) == 3 else 1
        if not (1 <= i <= m and 1 <= j <= m):
            raise ParameterRangeError(f"line {lineno}: vertex labels must be within 1..{m}")
        if k < 1:
            raise ParameterRangeError(f"line {lineno}: multiplicity must be >= 1")
        edges.append((i - 1, j - 1, k))
    if m is None:
        raise ParameterRangeError("no vertex count found")
    return MultiDigraph.from_edges(m, edges)


def format_digraph(d: MultiDigraph, header=()) -> str:
    """Canonical text form: header comments, vertex count, sorted edge lines."""
    lines = [f"# {h}" for h in header]
    lines.append(str(d.m))
    for i, j, k in d.edges():
        lines.append(f"{i + 1} {j + 1}" + (f" {k}" if k > 1 else ""))
    return "\n".join(lines) + "\n"


def arcs_to_json_obj(m: int, arcs) -> dict:
    """The JSON digraph document of m vertices and 0-based (i, j, k) edges."""
    return {
        "vertices": m,
        "edges": [[i + 1, j + 1, k] for i, j, k in arcs],
    }


def digraph_to_json_obj(d: MultiDigraph) -> dict:
    return arcs_to_json_obj(d.m, d.edges())


def digraph_from_json_obj(obj) -> MultiDigraph:
    try:
        m = int(obj["vertices"])
        edges = [(int(i) - 1, int(j) - 1, int(k)) for i, j, k in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterRangeError(f"bad digraph document: {exc}") from exc
    return MultiDigraph.from_edges(m, edges)
