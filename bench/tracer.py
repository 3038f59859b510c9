"""Span tracer that times effectkit's layers from outside the package.

effectkit's modules bind each other's names with ``from .x import y``, so a
function is wrapped at every binding site: in its own module and in every
effectkit module that holds the same object. The public constructors (and
``from_json_dict``) of the core classes are wrapped on the class. Each call
records a span (name, start, end, parent, operation id, note) in memory;
spans are read only after the run. ``restore`` puts every original back, and
``assert_untraced`` proves that no wrapper is left before an untraced run.

A span's name is ``<module>.<function>`` or ``<module>.<Class>.<method>``;
the module is the layer.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array

LAYERS = ("cli", "jsonio", "operators", "effects", "valuation", "nogo", "generate")
CLASSES = {
    "operators": ("ComplexMatrix", "HermitianOperator"),
    "effects": ("Effect", "Povm"),
    "valuation": ("ValuationTable",),
}
CLASS_METHODS = ("__init__", "from_json_dict")
# Per-entry schema helpers run hundreds of thousands of times per tomography
# operation; a span each would dominate what it measures. Their time stays
# in the caller's self time (the from_json_dict parsers).
UNTRACED = frozenset({"format_float", "expect_dict", "expect_key", "expect_list",
                      "expect_int", "expect_number", "expect_str"})
MARK = "__bench_span__"


class Spans:
    """Span records as columns: entry ``i`` of each column is span ``i``.

    ``parent`` is the index of the enclosing span or -1, ``op`` the
    operation id, ``note`` what the span recorded beyond its times. Columns
    keep a traced tomography run (≈35k spans per operation) small.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.note: dict[int, dict] = {}

    def __len__(self) -> int:
        return len(self.name)

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]


def _core_labels(result) -> int:
    return len({lb for c in result.unsat_core for lb in c.labels}
               | {c.target for c in result.unsat_core
                  if c.kind == "relation" and c.target != "I"})


def _search_note(args, kwargs, result):
    return {"nodes": result.nodes_explored,
            "core": len(result.unsat_core),
            "core_labels": _core_labels(result),
            "constraints": len(args[0].constraints())}


def _verify_note(args, kwargs, result):
    res, cs = args[0], args[1]
    if res.status == "unsat":
        checks = 2 ** _core_labels(res) * len(res.unsat_core)
    else:
        checks = len(res.assignments) * len(cs.constraints())
    return {"checks": checks}


# What a span records beyond its times, read from the call's arguments and
# result after the call has returned.
NOTES = {
    "jsonio.load": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "jsonio.dumps": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "valuation.hermitian_basis": lambda a, k, r: {"dim": a[0]},
    "valuation.reconstruct_density": lambda a, k, r: {
        "frame": len(a[0]), "dim": r[0].dim},
    "nogo.search_dispersion_free": _search_note,
    "nogo.verify_certificate": _verify_note,
}


class Tracer:
    """Wraps effectkit's public callables and records their spans."""

    def __init__(self):
        self.spans = Spans()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            i = len(spans.name)
            spans.name.append(name)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(self.op)
            spans.end.append(0.0)
            stack.append(i)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[i] = clock()
                stack.pop()
            if note is not None:
                spans.note[i] = note(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"effectkit.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in _effectkit_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, targets[obj])
        for layer, names in CLASSES.items():
            mod = importlib.import_module(f"effectkit.{layer}")
            for cls in filter(None, (getattr(mod, n, None) for n in names)):
                for meth in CLASS_METHODS:
                    raw = cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    name = f"{layer}.{cls.__name__}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        assert_untraced()


def _effectkit_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "effectkit" or n.startswith("effectkit."))]


def _is_wrapper(obj) -> bool:
    if isinstance(obj, classmethod):
        obj = obj.__func__
    return hasattr(obj, MARK)


def assert_untraced() -> None:
    """Raise if any tracer wrapper is bound anywhere in effectkit."""
    for mod in _effectkit_modules():
        for attr, obj in vars(mod).items():
            if _is_wrapper(obj):
                raise RuntimeError(f"trace wrapper left on {mod.__name__}.{attr}")
            if inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if _is_wrapper(raw):
                        raise RuntimeError(
                            f"trace wrapper left on {obj.__qualname__}.{meth}")


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for i, p in enumerate(spans.parent):
        if p >= 0:
            out[p] -= spans.duration(i)
    return out
