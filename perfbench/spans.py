"""Span recording around the package's public functions, from outside.

A Tracer replaces each target function at every module attribute of the
package that holds it, so that callers looking the name up at run time
(``einstein.skew_torsion_space``, ``nomizu.curvature``, ...) go through a
wrapper.  Methods are wrapped on their class (``LinearSpace.element``,
``MVec.__post_init__``).  Spans are kept in memory as
[name, start, end, parent, n] and written out when the benchmark ends.
The package is left unmodified once the Tracer exits.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

LAYERS = ("algebra", "spaces", "families", "nomizu", "einstein")

# methods whose calls matter to a layer's cost: (module, class, method)
METHODS = (
    ("algebra", "MVec", "__post_init__"),
    ("spaces", "Bilin", "from_function"),
    ("spaces", "LinearSpace", "element"),
)


def package_modules(pkg) -> list:
    """The package and all its submodules, imported."""
    mods = [pkg]
    for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def find_caches(pkg) -> dict[str, object]:
    """Every functools cache defined in the package, by qualified name.

    Found by walking the modules and their classes for ``cache_clear``, so
    a cache added later is found too.
    """
    found = {}
    for mod in package_modules(pkg):
        owners = [mod] + [c for c in vars(mod).values()
                          if inspect.isclass(c) and c.__module__ == mod.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                fn = getattr(obj, "__func__", obj)  # unwrap static/class methods
                if callable(getattr(fn, "cache_clear", None)) and \
                        getattr(fn, "__module__", None) == mod.__name__:
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def public_functions(pkg) -> dict[str, object]:
    """Public module-level functions (cached or not) of the LAYERS."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{pkg.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Context manager that records a span for every call of the targets.

    ``names`` limits the targets to the given span names; None traces all
    public functions of the layers and the METHODS.
    """

    def __init__(self, pkg, names=None):
        self.pkg = pkg
        self.names = names
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            n = args[0] if args and type(args[0]) is int else -1
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, n])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        mods = package_modules(self.pkg)
        for name, fn in public_functions(self.pkg).items():
            if self.names is not None and name not in self.names:
                continue
            wrapper = self._wrap(fn, name)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patch(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            name = f"{layer}.{cls_name}.{meth}"
            if self.names is not None and name not in self.names:
                continue
            cls = getattr(importlib.import_module(f"{self.pkg.__name__}.{layer}"), cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._patch(cls, meth, self._wrap(raw, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        return False


def summarize(spans: list[list]) -> dict:
    """Per span name: call count and self seconds, and the count of
    ``nomizu.curvature`` calls made inside ``einstein.solve_numeric``."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
    # ancestor test: walk parents of each curvature span
    inside_solve = 0
    for name, _, _, parent, _ in spans:
        if name != "nomizu.curvature":
            continue
        while parent >= 0 and spans[parent][0] != "einstein.solve_numeric":
            parent = spans[parent][3]
        inside_solve += parent >= 0
    return {"calls": calls, "self_s": self_s, "residual_evals": inside_solve}


def durations_by_n(spans: list[list], name: str) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for nm, t0, t1, _, n in spans:
        if nm == name:
            out.setdefault(n, []).append(t1 - t0)
    return out


def write_spans(path, spans: list[list]) -> None:
    """Spans as gzipped JSON: a name table plus rows [name_id, start, end, parent, n]."""
    names = sorted({s[0] for s in spans})
    ids = {nm: i for i, nm in enumerate(names)}
    rows = [[ids[nm], round(t0, 7), round(t1, 7), p, n] for nm, t0, t1, p, n in spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"names": names, "spans": rows}, fh)
