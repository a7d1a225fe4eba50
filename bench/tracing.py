"""Span tracing of the quivercount layers from outside the package.

The tracer wraps the public functions of each layer module and the listed
methods of its classes.  A wrapped name is patched in its defining module
and in every quivercount module that bound it with ``from .x import y``, so
that no call bypasses the span; ``uninstall`` restores every original.

A span has a name, a start, an end and a parent.  Spans are recorded only
under a job root (``Tracer.job``), and each one is folded into per-name
totals when it ends: its self time is its duration minus the time its child
spans cover, which is added to the parent as covered time.  Keeping totals
instead of the span list bounds memory on jobs with millions of calls.

Per-element ring operations (``ORing``, ``Fq``) are not wrapped: they run
millions of times per run, and their time is counted as self time of the
enclosing ``localring`` span instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "quivercount"

# layer modules, in the order their metrics are listed
LAYERS = ("localring", "bruteforce", "qpolynomial", "series", "kacpoly", "hall",
          "quiver", "closedforms", "cli")

# methods wrapped per class: the arithmetic, not the accessors, which run
# hundreds of thousands of times per run and would dominate the overhead
METHODS = {
    "localring": {"OMatrix": ("__add__", "__sub__", "__neg__", "__mul__", "apply",
                              "is_invertible", "inverse")},
    "qpolynomial": {
        "QPolynomial": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                        "__rmul__", "__pow__", "adams", "evaluate", "divmod_ordinary",
                        "to_string"),
        # RationalFunction canonicalises (a gcd) on creation
        "RationalFunction": ("__init__", "__add__", "__sub__", "__rsub__", "__neg__",
                             "__mul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
                             "adams", "evaluate", "qinv_series", "taylor_coefficients",
                             "to_string"),
    },
    "series": {"TruncatedSeries": ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                                   "adams", "exp", "log", "inverse", "truncate")},
    "hall": {"HallFunction": ("__add__", "__sub__", "scale")},
}


def _method_name(attr: str) -> str:
    return attr.strip("_") if attr.startswith("__") else attr


class Tracer:
    """Patches the quivercount layers and aggregates the spans they emit."""

    def __init__(self):
        self.stats = {}       # span name -> [calls, self seconds]
        self.counts = {}      # counter name -> value
        self._stack = []      # open spans: [covered seconds]
        self._seen = {}       # cache name -> keys seen in this process
        self._patches = []    # (owner, attribute, original)
        self._hooks = {
            "localring.smith_invariants": self._smith_entries,
            "bruteforce.enumerate_orbits": self._orbit_count,
            "bruteforce.moment_fiber_count": self._pool_wait,
            "hall.free_summands": self._key_hit("hall.free_summands", _summand_key),
            "hall.hall_product": self._key_hit("hall.flag_table", _flag_key),
        }

    # -- counters -----------------------------------------------------------

    def count(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _smith_entries(self, args, kwargs, result, self_s):
        M = args[0]
        self.count("localring.smith_invariants.entries", M.rows * M.cols * M.ring.alpha)

    def _orbit_count(self, args, kwargs, result, self_s):
        self.count("bruteforce.orbits", len(result))

    def _pool_wait(self, args, kwargs, result, self_s):
        jobs = kwargs.get("jobs", args[6] if len(args) > 6 else 1)
        if jobs > 1:
            self.count("bruteforce.pool_wait_s", self_s)

    def _key_hit(self, cache: str, key_fn):
        seen = self._seen.setdefault(cache, set())

        def hook(args, kwargs, result, self_s):
            key = key_fn(*args, **kwargs)
            self.count(cache + ".lookups")
            if key in seen:
                self.count(cache + ".hits")
            seen.add(key)
        return hook

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def job(self):
        """A job root span: spans are recorded only inside one."""
        if self._stack:
            raise RuntimeError("job roots do not nest")
        self._stack.append([0.0])
        try:
            yield
        finally:
            self._stack.clear()

    def _wrap(self, fn, name):
        stack, stats, hook = self._stack, self.stats, self._hooks.get(name)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if not stack:
                    yield from fn(*args, **kwargs)
                    return
                for item in fn(*args, **kwargs):
                    self.count(items)
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - span[0]
            if hook is not None:
                hook(args, kwargs, result, duration - span[0])
            return result
        return wrapper

    # -- patching ---------------------------------------------------------------

    def _targets(self):
        """(original, span name, class or None, attribute) for every wrapped
        callable of the layer modules."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    yield obj, f"{layer}.{attr}", None, attr
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in attrs:
                    fn = vars(cls)[attr]
                    yield fn, f"{layer}.{cls_name}.{_method_name(fn.__name__)}", cls, attr

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for fn, name, cls, attr in self._targets():
            wrappers[fn] = self._wrap(fn, name)
            if cls is not None:
                self._patch(cls, attr, wrappers[fn])
        # module-level names, wherever a quivercount module bound them
        modules = [module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _summand_key(ring, ambient, k):
    return (ring.q, ring.alpha, ambient, k)


def _flag_key(f1, f2, q):
    rank = (f1.rank[0] + f2.rank[0], f1.rank[1] + f2.rank[1])
    return (q, f1.alpha, rank, tuple(f2.rank))


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metric values from one traced pass."""
    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    def ratio(cache):
        lookups = counts.get(cache + ".lookups", 0)
        return counts.get(cache + ".hits", 0) / lookups if lookups else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[1] for k, v in stats.items()
                                     if k.startswith(layer + "."))
    for name in ("localring.smith_invariants", "localring.smith_normal_form",
                 "localring.OMatrix.mul", "localring.OMatrix.apply",
                 "bruteforce.moment_matrix", "qpolynomial.RationalFunction.init",
                 "qpolynomial.QPolynomial.divmod_ordinary", "qpolynomial.QPolynomial.mul",
                 "hall.free_summands", "hall.hall_product"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in ("localring.solve_linear", "bruteforce.act", "bruteforce.end_system_matrix",
                 "qpolynomial.poly_gcd", "series.plethystic_log", "series.plethystic_exp",
                 "series.TruncatedSeries.mul", "quiver.is_connected", "quiver.spanning_trees",
                 "cli.main"):
        out[name + ".calls"] = calls(name)
    for name in ("bruteforce.count_absolutely_indecomposable", "kacpoly.toric_kac_wyss",
                 "kacpoly.toric_kac_trees", "kacpoly.limit_A", "kacpoly.order_complex_hilbert",
                 "kacpoly.gloop_rank3_recurrence", "kacpoly.poincare_symbolic"):
        out[name + ".self_s"] = self_s(name)
    for name in ("localring.smith_invariants.entries", "localring.gl_enumerate.items",
                 "localring.kernel_elements.items", "bruteforce.orbits",
                 "bruteforce.pool_wait_s"):
        out[name] = counts.get(name, 0)
    out["hall.free_summands.hit_ratio"] = ratio("hall.free_summands")
    out["hall.flag_table.hit_ratio"] = ratio("hall.flag_table")
    return out
