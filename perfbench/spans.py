"""Outside-in span recorder for the layers of ``pseudoconformal``.

The recorder wraps the public functions of each module from the outside: a
wrapper replaces the function in its defining module and in every module of
the package that bound it with ``from .x import name``, and traced methods
are replaced on their class.  Nothing in the program changes; removing the
wrappers restores the original objects.

A span is one call of a traced function: its name, start, end, the span that
was open when it started (its parent) and the scene being run.  ``linalg``
spans also record the leading dimension of their first argument, which is
the matrix order (the coefficient count for ``durand_kerner``).  Spans are
kept in flat typed arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from types import FunctionType, ModuleType

#: layers, in the order the benchmark reports them
LAYERS = ("cli", "hypersurface", "lightlike", "congruence", "frames",
          "conformal", "catalog", "linalg")


@dataclass(frozen=True)
class Target:
    """A traced callable: ``attr`` of ``module``, or ``cls.attr`` if cls is set."""

    span: str
    module: str
    attr: str
    cls: str = ""
    ordered: bool = False


def _functions(layer, names, ordered=False):
    return [Target(f"{layer}.{n}", layer, n, ordered=ordered) for n in names]


#: every traced callable of the package; module paths are relative to it.
#: ``catalog.eval`` aggregates the jet and line evaluations, which call the
#: catalog's evaluators through the Immersion and IsotropicCongruence methods.
TARGETS = (
    _functions("cli", ["main", "load_scene"])
    + _functions("hypersurface", ["survey", "classify_point", "induced_metric"])
    + [Target("catalog.eval", "hypersurface", m, cls="Immersion")
       for m in ("point", "jet1", "jet2")]
    + [Target("catalog.eval", "congruence", "line_at", cls="IsotropicCongruence")]
    + _functions("conformal", ["darboux_unembed", "lift_point", "lift_tangent"])
    + _functions("frames", ["adapt_lightlike_frame", "complete_isotropic_frame",
                            "build_screen"])
    + [Target("frames.components", "frames", "components", cls="ConformalFrame")]
    + _functions("lightlike", ["focal_map", "lightlike_affinor", "degeneracy_check",
                               "torse_directions"])
    + _functions("congruence", ["congruence_affinor", "stratify",
                                "congruence_singular_points"])
    + _functions("linalg", ["jacobi_eigh", "solve", "solve_particular", "det",
                            "char_roots", "durand_kerner", "cluster_roots",
                            "orthonormal_rows"], ordered=True)
)


def span_names(targets=TARGETS) -> list:
    """Distinct span names in first-seen order."""
    return list(dict.fromkeys(t.span for t in targets))


def _order(args) -> int:
    if not args:
        return -1
    x = args[0]
    shape = getattr(x, "shape", None)
    if shape:
        return int(shape[0])
    try:
        return len(x)
    except TypeError:
        return -1


class SpanRecorder:
    """In-memory span store.  ``scene`` is the id stamped on new spans."""

    def __init__(self, names, clock=time.perf_counter):
        self.names = list(names)
        self.clock = clock
        self.name = array("h")
        self.parent = array("i")
        self.scene_of = array("i")
        self.order = array("h")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.scene = -1

    def __len__(self):
        return len(self.start)

    def wrap(self, fn, span: str, ordered: bool):
        name_id = self.names.index(span)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            parent = rec.current
            rec.name.append(name_id)
            rec.parent.append(parent)
            rec.scene_of.append(rec.scene)
            rec.order.append(_order(args) if ordered else -1)
            rec.end.append(0.0)
            rec.current = idx
            rec.start.append(rec.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = rec.clock()
                rec.current = parent

        return traced

    def summary(self, scene_scale=None):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its children;
        calls run one at a time, so children never overlap.  ``scene_scale``,
        indexed by scene id, multiplies the durations of that scene's spans.
        """
        import numpy as np

        k = len(self.names)
        if not len(self):
            z = np.zeros(k)
            return z.astype(int), z, z
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        if scene_scale is not None:
            dur = dur * np.asarray(scene_scale)[np.frombuffer(self.scene_of, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int16)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_t = dur - covered
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_t, minlength=k)
        return calls, total, own

    def save(self, path: str, scene_labels):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            scene_labels=np.array(list(scene_labels)),
            name=np.frombuffer(self.name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            scene=np.frombuffer(self.scene_of, dtype=np.int32),
            order=np.frombuffer(self.order, dtype=np.int16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if isinstance(m, ModuleType)
            and (name == package or name.startswith(package + "."))]


def _hidden_references(modules, originals):
    """Places a module attribute swap cannot reach that still hold an
    original: containers at module level, default arguments and partials."""
    found = []

    def scan(where, value):
        if id(value) in originals and value is originals[id(value)]:
            found.append(where)

    for mod in modules:
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            if isinstance(value, dict):
                for k, v in value.items():
                    scan(f"{where}[{k!r}]", v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    scan(f"{where}[...]", v)
            elif isinstance(value, functools.partial):
                scan(f"{where}.func", value.func)
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                if isinstance(fn, FunctionType) and fn.__module__ == mod.__name__:
                    for v in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                        scan(f"{where} default argument", v)
    return found


@contextmanager
def installed(recorder: SpanRecorder, package: str = "pseudoconformal",
              targets=TARGETS, warn=None):
    """Wrap every target for the duration of the block.

    A target missing from the program is reported through ``warn`` and its
    spans stay at zero.  Raises if, after patching, a module attribute or a
    reference the patch cannot reach still holds an unwrapped original, so a
    missed binding cannot silently zero a layer.
    """
    restore = []  # (owner, attr, previous value)
    originals = {}  # id(original) -> original
    wrappers = {}  # id(original) -> wrapper
    modules = _package_modules(package)
    try:
        for t in targets:
            mod = sys.modules.get(f"{package}.{t.module}")
            owner = getattr(mod, t.cls, None) if t.cls else mod
            fn = vars(owner).get(t.attr) if owner is not None else None
            if not callable(fn):
                if warn:
                    warn(f"traced callable {package}.{t.module}."
                         f"{t.cls + '.' if t.cls else ''}{t.attr} not found")
                continue
            wrapper = recorder.wrap(fn, t.span, t.ordered)
            originals[id(fn)] = fn
            wrappers[id(fn)] = wrapper
            if t.cls:
                restore.append((owner, t.attr, fn))
                setattr(owner, t.attr, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)]:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        left = [f"{m.__name__}.{a}" for m in modules for a, v in vars(m).items()
                if id(v) in originals and v is originals[id(v)]]
        left += _hidden_references(modules, originals)
        if left:
            raise RuntimeError(f"unwrapped references to traced callables: {left}")
        yield recorder
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
