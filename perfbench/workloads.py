"""The benchmark workloads: their CLI invocations and output checks.

Every workload is a list of ``(argv, expect)`` pairs.  ``argv`` goes to
``perron.cli.run`` unchanged; ``expect`` says how the benchmark decides that
the invocation's stdout is right.  Inputs come from the seed alone, and the
checks use only this file's own exact arithmetic, never the library under test.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

ROOT_TOL = "1e-10"

# The fixed sweeps, sized so that no invocation takes much over a second and a
# run holds a dozen passes or more: the machine's speed drifts, and the fastest
# of many short invocations follows that drift less than a few long ones do.
# The genus searches run for genus 5 to 8, so that they are most of a
# root_search pass.
VERIFY_SWEEP = (("verify", "c2", "--max-m", "11"), ("verify", "odd", "--k", "2", "--max-m", "10"))
GENUS_SEARCH = tuple(("search", "--genus", str(g), "--max-c", "4") for g in (5, 6, 7, 8))

# SHA-256 of the stdout of each fixed sweep.  Identical invocations must give
# byte-identical output, so these hold for every seed and every commit that
# does not change what the sweeps report.
SWEEP_DIGESTS = {
    VERIFY_SWEEP[0]: "55a0bf47137bcd0420d4cab83b875a876c7fc9028e51ce01c7521037e1c28a0f",
    VERIFY_SWEEP[1]: "36c14a23f89c4abe0a42f692b50010c0c6290ce3e2ab5d2a52811b3f5f6f27c0",
    GENUS_SEARCH[0]: "be69600e9994406d9c78f6dc6f3e15bbd07bec35bcb295ddad76f3224ecc2053",
    GENUS_SEARCH[1]: "c161f9c7320cdeab6cf3d95c30046d9e2152d433cbbd3e1cc731e0f56b0008d9",
    GENUS_SEARCH[2]: "543b17bb694fadf5139fa6100f11df4acfc7233d3ffd9fbe0f89ca0862baf159",
    GENUS_SEARCH[3]: "e41697fe2fe1fc3fdb5bc66cf0120178f3c73639448a14fe8ee16ecb3a4c84ba",
}

# Degrees of the realization-count queries of one pass: a hundred, so that
# their 90th percentile has ten beyond it.  The cost of a count depends on the
# degree and on how the ring splits into its two cycles, so both follow a
# fixed schedule and the work per pass barely depends on the seed.
COUNT_DEGREES = (4,) * 80 + (5,) * 20

# Root queries of one pass, stratified so that the work per pass barely
# depends on the seed: each family gets the same spread of degrees.  Their
# 90th percentile depends on which parameters the seed draws, so there are
# 153 of them; the degrees are kept low so that the genus searches still
# dominate a pass.
ROOT_QUERIES_PER_FAMILY = 51
ROOT_DEGREE_RANGE = (12, 36)

# Each workload joins a fixed sweep and seeded queries that stress the same
# layers, so that two workloads cover every layer and each run can be long.
WORKLOADS = ("census_sweep", "root_search")


def _sweep(argvs):
    return [(list(argv), {"kind": "digest", "sha256": SWEEP_DIGESTS[argv]}) for argv in argvs]


def inputs(name: str, seed: int):
    """The ``(argv, expect)`` pairs of one pass of a workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "census_sweep":
        return _sweep(VERIFY_SWEEP) + [
            _count_query(rng, m, 1 + i % (m - 1)) for i, m in enumerate(COUNT_DEGREES)
        ]
    if name == "root_search":
        return _sweep(GENUS_SEARCH) + _root_queries(rng)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# exact integer polynomials (descending coefficient lists), independent of perron
# ---------------------------------------------------------------------------

def _from_terms(degree, terms):
    cs = [0] * (degree + 1)
    for e, c in terms:
        cs[degree - e] += c
    return cs


def lt_coeffs(d, a):
    """x^{2d} - x^{2d-a} - x^d - x^a + 1."""
    return _from_terms(2 * d, [(2 * d, 1), (2 * d - a, -1), (d, -1), (a, -1), (0, 1)])


def c4_coeffs(parts):
    """The complexity-4 family on four lengths >= 2 summing to 2d."""
    two_d = sum(parts)
    terms = [(two_d, 1), (0, 1), (two_d // 2, -1)]
    for a in parts:
        terms += [(two_d - a, -1), (a, -1)]
    for k in range(4):
        for l in range(k + 1, 4):
            terms.append((parts[k] + parts[l], 1))
    return _from_terms(two_d, terms)


def mul_coeffs(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def format_poly(cs):
    """Descending-power text such as ``x^14 - x^8 - 2x + 1``."""
    deg = len(cs) - 1
    parts = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        e = deg - i
        mag = abs(c)
        var = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        body = str(mag) if e == 0 else (var if mag == 1 else f"{mag}{var}")
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(sign + body)
    return " ".join(parts)


def horner(cs, x):
    acc = Fraction(0)
    for c in cs:
        acc = acc * x + c
    return acc


def charpoly(rows):
    """det(xI - T) by Faddeev-LeVerrier in exact integers (descending order)."""
    m = len(rows)
    coeffs = [1]
    mk = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        c_prev = coeffs[-1]
        for i in range(m):
            mk[i][i] += c_prev
        amk = [[sum(rows[i][t] * mk[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
        trace = sum(amk[i][i] for i in range(m))
        coeffs.append(-trace // k)
        mk = amk
    return coeffs


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _count_query(rng, m, a1):
    """A (2,3)-shape digraph on m vertices: a ring of two cycles, of lengths
    a1 and m - a1, plus one free edge.

    The ring and the extra edge are placed exactly as the shape enumeration
    places them, so the polynomial has at least one realization.
    """
    lengths = (a1, m - a1)
    starts = (0, a1)
    rows = [[0] * m for _ in range(m)]
    for k, l in enumerate(lengths):
        for i in range(l):
            rows[starts[k] + i][starts[k] + (i + 1) % l] += 1
    for k, l in enumerate(lengths):
        rows[starts[k] + rng.randrange(l)][starts[1 - k]] += 1
    rows[rng.randrange(m)][rng.randrange(m)] += 1
    poly = format_poly(charpoly(rows))
    return ["count", poly, "--n", "2", "--c", "3"], {"kind": "count"}


def _stratified(rng, n):
    """n fractions in [0, 1), one in each n-th of the interval, in seeded order.

    Drawing the family parameters this way keeps every seed's mix of easy and
    hard queries alike, so the work per pass barely depends on the seed.
    """
    slots = list(range(n))
    rng.shuffle(slots)
    return [(k + rng.random()) / n for k in slots]


def _root_queries(rng):
    lo, hi = ROOT_DEGREE_RANGE
    n = ROOT_QUERIES_PER_FAMILY
    even_degrees = [2 * round((lo + (hi - lo) * i / (n - 1)) / 2) for i in range(n)]
    lt_a, c4_a, c4_b, sq_a = (_stratified(rng, n) for _ in range(4))
    queries = []  # (polynomial, the factor whose sign change certifies the bracket)
    for deg, u, s, t, v in zip(even_degrees, lt_a, c4_a, c4_b, sq_a):
        d = deg // 2
        lt = lt_coeffs(d, 1 + int(u * (d - 1)))
        a, b = 2 + int(s * (d - 3)), 2 + int(t * (d - 3))
        c4 = c4_coeffs([a, d - a, b, d - b])
        # squared LT polynomial of the same total degree: every root is double,
        # so the squarefree part has to be taken first
        h = round(deg / 4)
        f = lt_coeffs(h, 1 + int(v * (h - 1)))
        queries += [(lt, lt), (c4, c4), (mul_coeffs(f, f), f)]
    rng.shuffle(queries)
    return [
        (["root", format_poly(poly), "--tol", ROOT_TOL, "--bracket"], {"kind": "bracket", "factor": factor})
        for poly, factor in queries
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(expect, rc: int, stdout: str) -> bool:
    """True iff one invocation exited 0 and printed a correct answer."""
    if rc != 0:
        return False
    kind = expect["kind"]
    if kind == "digest":
        return digest(stdout) == expect["sha256"]
    if kind == "count":
        try:
            return int(stdout.strip()) >= 1
        except ValueError:
            return False
    if kind == "bracket":
        return _certify_bracket(expect["factor"], stdout)
    raise ValueError(f"unknown check {kind!r}")


def _certify_bracket(factor, stdout: str) -> bool:
    """Width <= tol, 1 <= lo <= hi, and the factor changes sign on [lo, hi]."""
    lines = stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("lo = ") or not lines[1].startswith("hi = "):
        return False
    try:
        lo = Fraction(lines[0][5:])
        hi = Fraction(lines[1][5:])
    except ValueError:
        return False
    if not (1 <= lo <= hi and hi - lo <= Fraction(ROOT_TOL)):
        return False
    return horner(factor, lo) * horner(factor, hi) <= 0
