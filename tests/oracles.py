"""Reference implementations that the library's faster routes are tested
against."""

from itertools import compress


def smooth(rows):
    """The smoothed core of a multiplicity grid, as ``(V, arcs, lengths, weights)``.

    Every vertex with in-degree = out-degree = 1 is suppressed; each core arc
    ``(u, v)`` stands for the path it replaces, with that path's edge count as
    its length and the multiplicity of a single edge (1 for longer paths) as
    its weight.  A vertex that no path from a core vertex covers lies on a bare
    cycle, and that cycle's first vertex is kept as a core vertex.  Core
    vertices keep the order of the grid's vertices, bare-cycle ones last.

    The digraph's cycle unions are exactly the core's, with lengths summed
    and weights multiplied; the core has V + complexity arc weight in all.
    """
    m = len(rows)
    vertices = range(m)
    # each vertex's core number; -1 marks a suppressed vertex not yet reached
    # and -2 one reached from a core vertex
    core = [-1] * m
    V = 0
    todo = []
    for v, out_deg, in_deg in zip(vertices, map(sum, rows), map(sum, zip(*rows))):
        if out_deg != 1 or in_deg != 1:
            core[v] = V
            V += 1
            todo.append(v)
    arcs = []
    lengths = []
    weights = []
    while True:
        for u in todo:
            row = rows[u]
            for v in compress(vertices, row):
                t = row[v]
                length = 1
                while core[v] < 0:
                    core[v] = -2
                    v = rows[v].index(1)
                    length += 1
                arcs.append((core[u], core[v]))
                lengths.append(length)
                weights.append(t)
        if -1 not in core:
            break
        v = core.index(-1)  # the first vertex of a bare cycle
        core[v] = V
        V += 1
        todo = [v]
    return V, arcs, lengths, weights


def format_polynomial(p):
    """Pretty form of an ``IntPolynomial`` in descending powers, e.g.
    ``x^14 - x^8 - x^7 - x^6 + 1``, visiting every coefficient in turn."""
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        e = p.degree - i
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "x" if e == 1 else f"x^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"
