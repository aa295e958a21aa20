"""Per-layer tracing by wrapping the public entry points of each layer.

Hooks are installed from outside the program, on a freshly imported
``mereo`` package, and every wrapped name is put back by ``restore``.  A
span is one call (or one step of a generator); a layer's self time is
the time its spans were open minus the time their child spans were open.
Kernel hooks only count calls, so kernel time stays in the caller's self
time and the per-call cost of the hook stays small.

A hook whose target is missing is skipped; when all of a layer's targets
are missing the layer is reported absent and its metrics read zero.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

# (group, module, attribute, kind).  Kinds:
#   span   time each call
#   truth  time each call, count true results
#   items  time each call or generator step, count the items produced
#   count  count calls only
HOOKS = [
    ("core.build", "mereo.core", "ParthoodStructure.__init__", "span"),
    ("search.generate", "mereo.search", "_all_masks", "items"),
    ("search.generate", "mereo.search", "_transitive_masks", "items"),
    ("search.generate", "mereo.search", "_order_compatible_posets", "items"),
    ("search.canonical_form", "mereo.search", "canonical_form", "span"),
    ("search.is_canonical", "mereo.search", "is_canonical", "truth"),
    ("search.enumerate", "mereo.search", "enumerate_models", "items"),
    ("axioms.satisfies", "mereo.axioms", "satisfies", "truth"),
    ("sums.kernel", "mereo.sums", "cover_mask", "count"),
    ("sums.kernel", "mereo.sums", "is_sum_mask", "count"),
    ("sums.kernel", "mereo.sums", "is_sup_mask", "count"),
    ("sums.kernel", "mereo.sums", "sum_candidates", "count"),
    ("sums.kernel", "mereo.sums", "sup_candidates", "count"),
    ("sums.query", "mereo.sums", "sum_of", "span"),
    ("sums.query", "mereo.sums", "sup_of", "span"),
    ("sums.query", "mereo.sums", "product", "span"),
    ("sums.query", "mereo.sums", "difference", "span"),
    ("sums.query", "mereo.sums", "complement", "span"),
    ("sums.query", "mereo.sums", "binary_sum", "span"),
    ("theories.check_theory", "mereo.theories", "check_theory", "span"),
    ("lattice", "mereo.lattice", "adjoin_zero", "span"),
    ("lattice", "mereo.lattice", "lattice_report", "span"),
    ("lattice", "mereo.lattice", "tarski_check", "span"),
    ("weakparts", "mereo.weakparts", "is_acyclic", "span"),
    ("weakparts", "mereo.weakparts", "is_locally_transitive", "span"),
    ("weakparts", "mereo.weakparts", "paths_between", "span"),
    ("cli.main", "mereo.cli", "main", "span"),
    ("cli.argparse", "mereo.cli", "_build_parser", "span"),
    ("cli.parse", "mereo.cli", "load_structure", "span"),
    ("cli.parse", "mereo.cli", "parse_structure", "span"),
]


class Stat:
    __slots__ = ("calls", "self_s", "hits")

    def __init__(self):
        self.calls = 0      # calls (for generators: calls creating one)
        self.self_s = 0.0
        self.hits = 0       # true results, or items produced


class Tracer:
    def __init__(self, lib_modules):
        """lib_modules: name -> module for every loaded mereo module."""
        self.modules = lib_modules
        self.stats = {}
        self.stack = [[0.0, 0.0]]         # [start, time in child spans]
        self.absent = []
        self._undo = []

    # -- span bookkeeping ---------------------------------------------------

    def _stat(self, group):
        return self.stats.setdefault(group, Stat())

    def _timed(self, st, call):
        stack = self.stack
        frame = [perf_counter(), 0.0]
        stack.append(frame)
        try:
            return call()
        finally:
            dur = perf_counter() - frame[0]
            stack.pop()
            st.self_s += dur - frame[1]
            stack[-1][1] += dur

    def _wrap(self, group, fn, kind):
        st = self._stat(group)
        timed = self._timed
        if kind == "count":
            def wrapper(*a, **k):
                st.calls += 1
                return fn(*a, **k)
        elif kind == "span":
            def wrapper(*a, **k):
                st.calls += 1
                return timed(st, lambda: fn(*a, **k))
        elif kind == "truth":
            def wrapper(*a, **k):
                st.calls += 1
                out = timed(st, lambda: fn(*a, **k))
                st.hits += bool(out)
                return out
        else:                                   # items
            def wrapper(*a, **k):
                st.calls += 1
                out = timed(st, lambda: fn(*a, **k))
                if isinstance(out, (list, tuple)):
                    st.hits += len(out)
                    return out
                return self._stepped(st, iter(out))
        wrapper.__wrapped__ = fn
        return wrapper

    def _stepped(self, st, it):
        """Re-yield a lazy result, timing each step as a span."""
        step = it.__next__
        try:
            while True:
                try:
                    item = self._timed(st, step)
                except StopIteration:
                    return
                st.hits += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close:
                close()

    # -- installing and restoring --------------------------------------------

    def install(self):
        missing = {}
        for group, modname, attr, kind in HOOKS:
            self._stat(group)
            ok = self._hook(group, modname, attr, kind)
            missing.setdefault(group, []).append(not ok)
        if not self._hook_catalog():
            missing["axioms"] = [True]
        self.absent = sorted(g for g, flags in missing.items() if all(flags))

    def _hook(self, group, modname, attr, kind):
        module = self.modules.get(modname)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, name, None) if owner is not None else None
        if not callable(fn):
            return False
        wrapper = self._wrap(group, fn, kind)
        if owner_name:                              # a method
            self._undo.append((owner, name, fn))
            setattr(owner, name, wrapper)
            return True
        # Replace every binding of the function in every mereo module,
        # so names imported with "from .x import f" are traced as well.
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        return True

    def _hook_catalog(self):
        """Trace each axiom code separately through its catalog entry."""
        axioms = self.modules.get("mereo.axioms")
        catalog = getattr(axioms, "CATALOG", None)
        if not isinstance(catalog, dict):
            return False
        hooked = False
        for code, info in list(catalog.items()):
            fn = getattr(info, "find_violation", None)
            if not callable(fn) or not dataclasses.is_dataclass(info):
                continue
            name = getattr(code, "value", str(code))
            wrapped = self._wrap(f"axioms.{name}", fn, "span")
            catalog[code] = dataclasses.replace(info, find_violation=wrapped)
            self._undo.append((catalog, code, info))
            hooked = True
        return hooked

    def restore(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()


# -- per-layer metrics ------------------------------------------------------------

def axiom_codes(lib):
    return [a.value for a in lib.axioms.CATALOG_ORDER]


def layer_metrics(stats, codes, scale):
    """Per-layer metric values from one traced pass: name -> (value, unit).
    Self times are multiplied by scale, the pass's clock factor."""
    def st(group):
        found = stats.get(group)
        if found is None:
            return Stat()
        out = Stat()
        out.calls, out.self_s, out.hits = (found.calls, found.self_s * scale,
                                           found.hits)
        return out

    def ratio(num, den):
        return num / den if den else 0.0

    gen, enum, canon, iscan, sat = (st("search.generate"), st("search.enumerate"),
                                   st("search.canonical_form"),
                                   st("search.is_canonical"),
                                   st("axioms.satisfies"))
    m = {
        "core.build.calls": (st("core.build").calls, "count"),
        "core.build.self_s": (st("core.build").self_s, "s"),
        "search.generate.candidates": (gen.hits, "count"),
        "search.generate.self_s": (gen.self_s, "s"),
        "search.canonical_form.calls": (canon.calls, "count"),
        "search.canonical_form.self_s": (canon.self_s, "s"),
        "search.is_canonical.calls": (iscan.calls, "count"),
        "search.is_canonical.self_s": (iscan.self_s, "s"),
        "search.is_canonical.keep_ratio": (ratio(iscan.hits, iscan.calls),
                                           "ratio"),
        "search.enumerate.models": (enum.hits, "count"),
        "search.enumerate.self_s": (enum.self_s, "s"),
        "search.survivor_ratio": (ratio(enum.hits, gen.hits), "ratio"),
    }
    total = sat.self_s
    for code in codes:
        a = st(f"axioms.{code}")
        m[f"axioms.{code}.calls"] = (a.calls, "count")
        m[f"axioms.{code}.self_s"] = (a.self_s, "s")
        total += a.self_s
    m["axioms.self_s"] = (total, "s")
    m["axioms.satisfies.calls"] = (sat.calls, "count")
    m["axioms.satisfies.pass_ratio"] = (ratio(sat.hits, sat.calls), "ratio")
    m["sums.kernel.calls"] = (st("sums.kernel").calls, "count")
    m["sums.query.calls"] = (st("sums.query").calls, "count")
    m["sums.query.self_s"] = (st("sums.query").self_s, "s")
    m["theories.check_theory.calls"] = (st("theories.check_theory").calls,
                                        "count")
    m["theories.check_theory.self_s"] = (st("theories.check_theory").self_s,
                                         "s")
    for layer in ("lattice", "weakparts"):
        m[f"{layer}.calls"] = (st(layer).calls, "count")
        m[f"{layer}.self_s"] = (st(layer).self_s, "s")
    m["cli.main.calls"] = (st("cli.main").calls, "count")
    m["cli.self_s"] = (st("cli.main").self_s, "s")
    m["cli.argparse.self_s"] = (st("cli.argparse").self_s, "s")
    m["cli.parse.self_s"] = (st("cli.parse").self_s, "s")
    return m


# Layers compared when naming the largest one: metric holding its self time.
LAYER_SELF = {
    "core.build": ["core.build.self_s"],
    "search.generate": ["search.generate.self_s"],
    "search.canonical_form": ["search.canonical_form.self_s"],
    "search.is_canonical": ["search.is_canonical.self_s"],
    "search.enumerate": ["search.enumerate.self_s"],
    "axioms": ["axioms.self_s"],
    "sums.query": ["sums.query.self_s"],
    "theories": ["theories.check_theory.self_s"],
    "lattice": ["lattice.self_s"],
    "weakparts": ["weakparts.self_s"],
    "cli": ["cli.self_s", "cli.argparse.self_s", "cli.parse.self_s"],
}


def layer_shares(metrics, traced_wall):
    """(layer, self seconds, share of the traced wall), largest first."""
    rows = [(layer, sum(metrics[k][0] for k in keys))
            for layer, keys in LAYER_SELF.items()]
    rows.sort(key=lambda r: -r[1])
    return [(layer, s, s / traced_wall if traced_wall else 0.0)
            for layer, s in rows]


def median_metrics(per_pass):
    """Counts and ratios from the first pass (every pass ran the same
    inputs, so they agree); times as the median over passes."""
    first = per_pass[0]
    out = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in per_pass)
        out[name] = (value, unit)
    return out
