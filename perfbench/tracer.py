"""In-memory span tracer that wraps module attributes of the ddalign package.

A span is recorded at every call of a wrapped function: its name, start and
end (``time.perf_counter`` seconds), the index of the enclosing span (-1 at
top level) and the operation id current when it started. The program is
single-threaded, so the child spans of a span never overlap and its self time
is its duration minus the sum of its children's durations.

Wrapping is by discovery, not by a fixed list: every public function bound in
a layer module is wrapped where it is bound, so a function the code deletes or
renames simply disappears from the trace instead of breaking it. Names that
the metrics expect but that no longer exist are reported as absent.
"""

import contextlib
import functools
import importlib
import time
import types

# ddalign modules that form the layers; each is scanned for bound functions
LAYERS = ("kernels", "net", "trainer", "evaluation", "data", "features", "cli", "schedules")

# Per-element helpers called hundreds of times per unit of work (310 times per
# feature window); wrapping them would make the wrapper's own cost a visible
# share of their layer's time.
LEAF_FUNCTIONS = frozenset({"differential_entropy"})


def layer_of(fn: types.FunctionType, bound_in: str) -> str:
    """Layer a function belongs to: its defining module if that is a layer,
    else the layer module it is bound in (helpers re-exported from a private
    module count toward the module that re-exports them)."""
    defining = fn.__module__.rsplit(".", 1)[-1]
    return defining if defining in LAYERS else bound_in


class Tracer:
    """Records spans while installed; ``restore`` puts every original back."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op = 0
        self.wrapped: set[str] = set()
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str) -> bool:
        """Replace ``module.attr`` with a span-recording wrapper; False if absent."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))
        self.wrapped.add(name)
        return True

    def install(self, package: str = "ddalign") -> "Tracer":
        """Wrap every public function bound in each layer module of ``package``."""
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in LEAF_FUNCTIONS
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                self.wrap(module, attr, f"{layer_of(obj, layer)}.{obj.__name__}")
        return self

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run the wrapped functions but record no span."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def absent(self, expected) -> list[str]:
        """Expected span names that no wrapped function produces."""
        return sorted(set(expected) - self.wrapped)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path) -> None:
        """All spans as CSV: name,start,end,parent,op."""
        with open(path, "w") as f:
            f.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


class SpanStats:
    """Aggregates over the spans of one tracer."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.self_s = tracer.self_times()

    def layer_self(self, layer: str) -> float:
        """Time spent in the layer's own code: self time summed over its spans."""
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self.self_s) if s[0].startswith(prefix))

    def span_self(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s) if s[0] == name)

    def inclusive(self, names) -> float:
        """Duration of spans named in ``names`` that have no ancestor also in it."""
        names = set(names)
        total = 0.0
        for s in self.spans:
            if s[0] in names and not self._has_ancestor_in(s, names):
                total += s[2] - s[1]
        return total

    def count(self, names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def boundary_calls(self, layer: str) -> int:
        """Calls into the layer from outside it (parent span in another layer)."""
        prefix = layer + "."
        return sum(
            1 for s in self.spans
            if s[0].startswith(prefix)
            and (s[3] < 0 or not self.spans[s[3]][0].startswith(prefix))
        )

    def _has_ancestor_in(self, span, names) -> bool:
        parent = span[3]
        while parent >= 0:
            p = self.spans[parent]
            if p[0] in names:
                return True
            parent = p[3]
        return False
