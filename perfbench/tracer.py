"""In-memory span tracer that wraps didom's public functions from outside.

Each wrapped call records one span: name, start, end and parent span.  The
wrappers are installed at every name through which callers look a function
up (the defining module and every didom module that imported it by name),
so nothing under ``src/`` changes.  A layer's time is its self time: the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
from array import array
from bisect import bisect_right
from pathlib import Path
from time import perf_counter_ns

# didom modules traced as layers; bitset is left out, its helpers are too
# small to wrap without the wrapper dominating what it measures.
LAYERS = (
    "kernels",
    "auxgraph",
    "solvers",
    "families",
    "core",
    "records",
    "verify",
    "products",
    "validate",
)
# kernels.backend_for and has_compiled_kernels are dispatch helpers; only the
# two solve entry points count as kernel calls.
KERNEL_ENTRIES = ("min_set_cover", "max_independent_set")
SERIALIZE = "records.VerificationRecord.to_json"
DESCRIPTOR = "records.digraph_descriptor"
ELAPSED = re.compile(r'"elapsed_ms": ([^,}]*)')

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "kernels.ms": ("ms", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.pure_calls": ("count", "lower"),
    "kernels.distinct_share": ("1", "higher"),
    "auxgraph.ms": ("ms", "lower"),
    "auxgraph.calls": ("count", "lower"),
    "solvers.ms": ("ms", "lower"),
    "families.ms": ("ms", "lower"),
    "families.calls": ("count", "lower"),
    "core.ms": ("ms", "lower"),
    "records.descriptor_ms": ("ms", "lower"),
    "records.serialize_ms": ("ms", "lower"),
    "records.bytes": ("bytes", "lower"),
    "verify.ms": ("ms", "lower"),
    "verify.records": ("count", "higher"),
    "products.ms": ("ms", "lower"),
    "products.vertices": ("count", "lower"),
    "validate.ms": ("ms", "lower"),
    "validate.calls": ("count", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
}
# Metrics that count work; two traced runs of one seed must agree on them.
COUNTS = tuple(k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes", "1"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        # intervals spent in untraced() code, left out of every self time
        self.gap_start = array("q")
        self.gap_end = array("q")
        self.pure_calls = 0
        self.distinct_calls = 0
        self.bytes = 0
        self.vertices = 0
        self._seen: set = set()

    def reset(self) -> None:
        """Drop spans and counts, e.g. those recorded while building inputs."""
        for column in (self.span_name, self.parent, self.start, self.end, self.gap_start, self.gap_end):
            del column[:]
        self.pure_calls = self.distinct_calls = self.bytes = self.vertices = 0
        self._seen.clear()

    def new_round(self) -> None:
        """Kernel inputs count as distinct within one round of a workload."""
        self._seen.clear()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, pre=None, post=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack
        )
        clock = perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so lazily produced items are timed
            # where they are produced, under whoever asked for them
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = len(span_name)
                    span_name.append(nid)
                    parent.append(stack[-1])
                    end.append(0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def untraced(self, fn):
        """fn, with the time it runs left out of the self time of the span
        it interrupts.  It may run as a signal handler: it records no span,
        so it cannot interleave with a wrapper's bookkeeping."""
        gap_start, gap_end, clock = self.gap_start, self.gap_end, perf_counter_ns

        def run(*args):
            t = clock()
            fn(*args)
            gap_end.append(clock())
            gap_start.append(t)

        return run

    def install(self) -> None:
        """Wrap the public functions of every layer module of the imported
        didom, at every didom module attribute that refers to them."""
        kernels = sys.modules["didom.kernels"]
        backend_for = kernels.backend_for

        def kernel_call(key, pure: bool) -> None:
            if pure:
                self.pure_calls += 1
            if key not in self._seen:
                self._seen.add(key)
                self.distinct_calls += 1

        def cover_pre(args) -> None:
            masks, universe = args[0], args[1]
            kernel_call(
                ("cover", universe, tuple(masks)),
                backend_for(universe.bit_length(), len(masks)) == "pure",
            )

        def mis_pre(args) -> None:
            adj, n = args[0], args[1]
            kernel_call(("mis", n, tuple(adj)), backend_for(n) == "pure")

        def product_post(result) -> None:
            self.vertices += result[0].n

        def serialize_post(result) -> None:
            # the digits of elapsed_ms vary with timing; leave them out so
            # the count repeats exactly
            timing = ELAPSED.search(result)
            self.bytes += len(result) - (len(timing.group(1)) if timing else 0)

        hooks = {
            "kernels.min_set_cover": (cover_pre, None),
            "kernels.max_independent_set": (mis_pre, None),
            "products.cartesian_product": (None, product_post),
            "products.direct_product": (None, product_post),
        }
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"didom.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if layer == "kernels" and attr not in KERNEL_ENTRIES:
                    continue
                name = f"{layer}.{attr}"
                pre, post = hooks.get(name, (None, None))
                replacement[id(fn)] = (fn, self.wrap(fn, name, pre, post))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "didom" or mod_name.startswith("didom.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        record_cls = sys.modules["didom.records"].VerificationRecord
        record_cls.to_json = self.wrap(record_cls.to_json, SERIALIZE, post=serialize_post)

    # -- reporting --------------------------------------------------------

    def self_times_ns(self) -> array:
        """Per span: its duration minus the durations of its direct children
        (spans nest, the process being single-threaded) and of the gaps
        that fell in it and in none of its children."""
        start, end, parent = self.start, self.end, self.parent
        out = array("q", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(parent):
            if p >= 0:
                out[p] -= end[i] - start[i]
        for gs, ge in zip(self.gap_start, self.gap_end):
            # spans start in index order: the innermost one holding the gap
            # is the latest-starting one before it that has not yet ended
            j = bisect_right(start, gs) - 1
            while j >= 0 and end[j] < ge:
                j = parent[j]
            if j >= 0:
                out[j] -= ge - gs
        return out

    def layer_metrics(self, records: int, items_per_s: float) -> dict:
        self_ns = self.self_times_ns()
        ns = {layer: 0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        descriptor_ns = serialize_ns = 0
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for nid, t in zip(self.span_name, self_ns):
            name = self.names[nid]
            layer = layer_of[nid]
            ns[layer] += t
            calls[layer] += 1
            if name == DESCRIPTOR:
                descriptor_ns += t
            elif name == SERIALIZE:
                serialize_ns += t
        kernel_calls = calls["kernels"]
        values = {
            "kernels.ms": ns["kernels"] / 1e6,
            "kernels.calls": kernel_calls,
            "kernels.pure_calls": self.pure_calls,
            "kernels.distinct_share": self.distinct_calls / kernel_calls if kernel_calls else 1.0,
            "auxgraph.ms": ns["auxgraph"] / 1e6,
            "auxgraph.calls": calls["auxgraph"],
            "solvers.ms": ns["solvers"] / 1e6,
            "families.ms": ns["families"] / 1e6,
            "families.calls": calls["families"],
            "core.ms": ns["core"] / 1e6,
            "records.descriptor_ms": descriptor_ns / 1e6,
            "records.serialize_ms": serialize_ns / 1e6,
            "records.bytes": self.bytes,
            "verify.ms": ns["verify"] / 1e6,
            "verify.records": records,
            "products.ms": ns["products"] / 1e6,
            "products.vertices": self.vertices,
            "validate.ms": ns["validate"] / 1e6,
            "validate.calls": calls["validate"],
            "trace.items_per_s": items_per_s,
        }
        return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with open(path, "w", encoding="ascii") as sink:
            sink.write("name\tstart_ns\tend_ns\tparent\n")
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                sink.write(f"{names[nid]}\t{s}\t{e}\t{p}\n")


def self_test() -> list:
    """Check self-time accounting on known spans and on live nested calls."""
    problems = []
    t = Tracer()
    t.names.append("x.f")
    # root [0,100] with children [10,40] (which has child [20,30]) and [50,60]
    for s, e, p in ((0, 100, -1), (10, 40, 0), (20, 30, 1), (50, 60, 0)):
        t.span_name.append(0)
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
    if list(t.self_times_ns()) != [60, 20, 10, 10]:
        problems.append(f"self times {list(t.self_times_ns())}, expected [60, 20, 10, 10]")
    # gaps in the grandchild, in the first child after it, and in the root
    for s, e in ((22, 25), (32, 36), (70, 75)):
        t.gap_start.append(s)
        t.gap_end.append(e)
    if list(t.self_times_ns()) != [55, 16, 7, 10]:
        problems.append(f"self times {list(t.self_times_ns())} with gaps, expected [55, 16, 7, 10]")

    t = Tracer()

    def produce():
        yield from range(3)

    inner = t.wrap(lambda: sum(range(2000)), "b.inner")
    gen = t.wrap(produce, "b.gen")
    gap = t.untraced(lambda: sum(range(3000)))
    outer = t.wrap(lambda: (inner(), gap(), inner(), list(gen())), "a.outer")
    outer()
    self_ns = t.self_times_ns()
    duration = [e - s for s, e in zip(t.start, t.end)]
    gap_ns = t.gap_end[0] - t.gap_start[0]  # run directly under the root
    for i in range(len(duration)):
        children = sum(duration[j] for j, p in enumerate(t.parent) if p == i)
        gaps = gap_ns if i == 0 else 0
        if self_ns[i] != duration[i] - children - gaps or self_ns[i] < 0:
            problems.append(f"span {i}: self {self_ns[i]} != {duration[i]} - {children} - {gaps}")
    if sum(self_ns) != duration[0] - gap_ns:
        problems.append(f"self times sum to {sum(self_ns)}, the root lasted {duration[0]} with a gap of {gap_ns}")
    # outer, two inner calls, and four resumptions of the generator
    if len(duration) != 7 or list(t.parent).count(0) != 6:
        problems.append(f"expected 7 spans, 6 under the root; got parents {list(t.parent)}")
    return problems
