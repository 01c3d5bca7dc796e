"""Span tracing of the ebmlp package, installed from outside it.

The tracer finds each module's public functions and the public methods of
the classes it defines when it is installed, so a function added by a later
change is traced without editing this file and one that is removed simply
records nothing. Modules import many functions by name (``from .core import
adam_update``), so every attribute of every ebmlp module bound to a traced
function is replaced, and ``Patcher.restore`` puts each original back.
"""

import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass

# Elementwise helpers run hundreds of thousands of times per run; a span
# each would cost more than the work they time, so their time stays with
# the caller.
UNTRACED = frozenset({"core.sigmoid", "core.sigmoid_prime", "core.softplus", "core.logsumexp"})
CONSTRUCTORS = ("__init__", "__post_init__")


def package_modules(package):
    """{module short name: module} for every submodule of ``package``."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner.attr`` holds ``raw``. For module
    functions the owner is the defining module; for methods it is the class,
    and ``raw`` may be a classmethod or staticmethod wrapper."""

    layer: str
    name: str
    owner: object
    attr: str
    raw: object

    @property
    def function(self):
        return self.raw.__func__ if isinstance(self.raw, (classmethod, staticmethod)) else self.raw


def _is_public(attr):
    return not attr.startswith("_") or attr in CONSTRUCTORS


def discover(modules):
    """Targets for the public functions and methods defined in each module."""
    targets = []
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                targets.append(Target(layer, f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj):
                for method, raw in vars(obj).items():
                    target = Target(layer, f"{layer}.{attr}.{method}", obj, method, raw)
                    if _is_public(method) and inspect.isfunction(target.function):
                        targets.append(target)
    return targets


class Patcher:
    """Replaces callables wherever the package binds them.

    A module function is replaced under every name any module of the
    package (or the package itself) binds it to; a method is replaced in
    the class that defines it, which covers every instance and subclass.
    """

    def __init__(self, package, modules):
        self._namespaces = [package, *modules.values()]
        self._undo = []

    def replace(self, target, wrapper):
        if inspect.isclass(target.owner):
            raw = target.raw
            wrapped = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
            self._set(target.owner, target.attr, wrapped)
            return
        for namespace in self._namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is target.raw:
                    self._set(namespace, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records one span per traced call: (layer, name, start, end, parent).

    ``parent`` is the index of the enclosing span, or -1 for a top-level
    span. ``observers`` maps a layer or a span name to a callable that
    receives (args, result) after each call, for counters taken at the
    layer boundary.
    """

    def __init__(self, observers=None):
        self.spans = []
        self._stack = []
        self.observers = observers or {}

    def wrap(self, target):
        func = target.function
        layer, name = target.layer, target.name
        observe = self.observers.get(name) or self.observers.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, package, modules):
        """Wrap every discovered target; returns the Patcher to restore."""
        patcher = Patcher(package, modules)
        for target in discover(modules):
            patcher.replace(target, self.wrap(target))
        return patcher


def summarize(spans):
    """Per-layer self time and call counts, per-name inclusive time, and
    the total time of top-level spans."""
    child = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, inclusive = {}, {}, {}
    top = 0.0
    for i, (layer, name, start, end, parent) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
        calls[layer] = calls.get(layer, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        if parent < 0:
            top += end - start
    return {"self_s": self_s, "calls": calls, "inclusive_s": inclusive, "top_level_s": top}
