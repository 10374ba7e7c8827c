"""Outside-in tracer: times calls into the package's layers from the benchmark.

The package itself is not instrumented.  install() replaces each target
function with a timing wrapper at every module attribute of the package
that is bound to it, so calls made through `from .x import f` bindings
and through module globals are both seen; uninstall() puts every
original back.  Calls made while no op is active pass straight through.

Each wrapped call inside an op becomes a span (name, op id, parent span,
start, end, child time, counts).  Self time is the span's duration minus
the time covered by its child spans; calls run on one thread, so children
never overlap and their durations add.  Targets hit tens of thousands of
times per op are aggregated into a count and a summed time instead of
individual spans, but still charge their time to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# marker attribute set on every wrapper, used to prove none is left bound
WRAPPER_MARK = "__perfbench_span__"


@dataclass(frozen=True)
class Target:
    """One function to trace, named by its defining module and attribute.

    attr may be "Class.method" to wrap a method on the class.  counts maps
    (args, kwargs, result) to a dict of work counts stored on the span.
    """

    module: str
    attr: str
    layer: str
    aggregate: bool = False
    counts: object = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


@dataclass
class Aggregate:
    layer: str
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder; one per traced run."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    op: int | None = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        if self._stack:
            raise RuntimeError("op ended with open spans")
        self.op = None

    def _span_wrapper(self, target: Target, fn):
        name, layer, counts = target.name, target.layer, target.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            span = Span(name, layer, self.op,
                        stack[-1] if stack else None, self.clock())
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                if stack:
                    self.spans[stack[-1]].child += span.duration
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def _aggregate_wrapper(self, target: Target, fn):
        agg = self.aggregates.setdefault(target.name, Aggregate(target.layer))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                agg.calls += 1
                agg.seconds += elapsed
                if self._stack:
                    self.spans[self._stack[-1]].child += elapsed

        setattr(wrapper, WRAPPER_MARK, target.name)
        return wrapper

    # -- binding -----------------------------------------------------------

    def install(self, targets, package: str) -> None:
        """Bind a wrapper at every attribute of the package equal to a target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every target's module first: a module imported while
        # wrappers are bound would copy them into bindings nobody restores
        owners = [importlib.import_module(t.module) for t in targets]
        modules = package_modules(package)
        for target, owner in zip(targets, owners):
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._bind(cls, meth, self._make(target, fn))
                continue
            fn = getattr(owner, target.attr)
            wrapper = self._make(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._bind(mod, attr, wrapper)

    def _make(self, target: Target, fn):
        if target.aggregate:
            return self._aggregate_wrapper(target, fn)
        return self._span_wrapper(target, fn)

    def _bind(self, holder, attr, wrapper) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding install() replaced, newest first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


def package_modules(package: str) -> list:
    prefix = package + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(prefix))]


def bound_wrappers(package: str) -> list[str]:
    """Every wrapper still bound in the package's modules or their classes."""
    found = []
    for mod in package_modules(package):
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, inner in vars(value).items():
                    if hasattr(inner, WRAPPER_MARK):
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    return found


def ancestors(spans: list, span: Span):
    """Yield the spans enclosing span, innermost first."""
    parent = span.parent
    while parent is not None:
        outer = spans[parent]
        yield outer
        parent = outer.parent
