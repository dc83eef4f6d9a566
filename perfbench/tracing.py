"""Span tracing of perron's layers, installed from outside the library.

Each kernel is a set of entry points of one module.  ``install``
replaces every binding of those functions (in every ``perron`` module that
imported them by name, and on the class for methods) with a wrapper that
records one span per call: kernel, start, end, parent span and request id.
Spans stay in memory until ``summary`` and ``write_spans`` read them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import perf_counter

# layer.kernel -> (module, attribute) entry points; "Class.method" patches the class
KERNELS = {
    "cli.render": [("perron.search", "SearchReport.render_text")],
    "search.sweep": [
        ("perron.search", "verify_case_c_le_2"),
        ("perron.search", "verify_case_odd_diagonal"),
        ("perron.search", "genus_candidates"),
        ("perron.search", "count_realizations"),
        ("perron.search", "enumerate_digraphs"),
    ],
    "search.census_checks": [("perron.search", "_census_checks")],
    "search.decide": [("perron.search", "_decide_candidate")],
    "families.build_shape": [
        ("perron.families", "build_shape_nc"),
        ("perron.families", "build_shape_22"),
    ],
    "families.family_poly": [
        ("perron.families", "lt_polynomial"),
        ("perron.families", "c4_polynomial"),
    ],
    "spectral.fast_bracket": [("perron.spectral", "fast_bracket_at_least_one")],
    "spectral.descartes": [("perron.spectral", "descartes_roots_above")],
    "spectral.largest_real_root": [("perron.spectral", "largest_real_root")],
    "spectral.sturm_count": [("perron.spectral", "count_roots_above")],
    "charpoly.char_poly_ct": [("perron.charpoly", "char_poly_ct")],
    "charpoly.linear_subdigraphs": [("perron.charpoly", "enumerate_linear_subdigraphs")],
    "polynomial.eval": [("perron.polynomial", "IntPolynomial.__call__")],
    "polynomial.classify": [("perron.polynomial", "classify_palindrome")],
    "polynomial.parse": [("perron.polynomial", "parse_polynomial")],
    "digraph.from_rows": [("perron.digraph", "MultiDigraph.from_rows")],
    "digraph.with_edge": [("perron.digraph", "MultiDigraph.with_edge")],
    "digraph.cycles": [("perron.digraph", "_weighted_cycles")],
    "digraph.canonical_form": [("perron.digraph", "canonical_form")],
    "digraph.strong_connectivity": [("perron.digraph", "is_strongly_connected")],
}

# counts read off a call's arguments and result, at the same boundary as the span
COUNTERS = {
    ("perron.spectral", "fast_bracket_at_least_one"): lambda args, res: {
        "spectral.fast_bracket.settled": res is not None
    },
    ("perron.search", "enumerate_digraphs"): lambda args, res: {"search.classes": len(res)},
    # only the genus search's own report: the verify sweeps return reports too
    ("perron.search", "genus_candidates"): lambda args, res: {"search.survivors": len(res.survivors)},
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names = list(KERNELS)
        self.spans = []  # (kernel index, start, end, parent span index, request id)
        self.counters = {}
        self.request = 0
        self.missing = []
        self._stack = []

    def _wrap(self, fn, kernel: int, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (kernel, start, end, parent, self.request)
            if counter is not None:
                for key, n in counter(args, res).items():
                    self.counters[key] = self.counters.get(key, 0) + int(n)
            return res

        return traced

    def install(self):
        """Patch every entry point of every kernel; absent ones are listed in ``missing``."""
        for kernel, targets in enumerate(KERNELS.values()):
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                counter = COUNTERS.get((module_name, attr))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(meth)
                    if raw is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(raw.__func__, kernel, counter)))
                    else:
                        setattr(cls, meth, self._wrap(raw, kernel, counter))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                traced = self._wrap(fn, kernel, counter)
                # modules that did `from .x import fn` hold their own binding
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "perron" or mod_name.startswith("perron.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    def summary(self, wall: float) -> dict:
        """Calls and self time per kernel, the counters, and the untraced rest of ``wall``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        top = 0.0
        for idx, (kernel, start, end, parent, _) in enumerate(self.spans):
            name = self.names[kernel]
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
            if parent < 0:
                top += end - start
        return {
            "calls": calls,
            "self_s": self_s,
            "counters": dict(self.counters),
            "untraced_s": wall - top,
            "missing": self.missing,
        }

    def write_spans(self, path: str):
        """All spans as gzipped TSV: kernel, start, end, parent span, request id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("kernel\tstart\tend\tparent\trequest\n")
            for kernel, start, end, parent, req in self.spans:
                fh.write(f"{self.names[kernel]}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\n")
