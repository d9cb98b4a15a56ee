"""Spans around calls into tuplix's layers, recorded from outside the package.

A layer function is wrapped where its callers look it up: the name another
tuplix module imported it under (``tuplix.cli.parse``,
``tuplix.algebra.fold_constants``, ``tuplix.dsl.substitute_all``, ...), and
for ``cli`` and ``laws`` also the function's own module attribute, because
those are called from inside their module and by the benchmark. A
function's recursive calls go through its own module's globals, which stay
unwrapped, so one span covers one call from another layer.

Spans stay in memory until the run ends: name, start, end, parent span and
the request they belong to. Self time is a span's duration minus that of
its direct children.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from array import array
from pathlib import Path

# Every function the per-layer report names, as "<module>.<function>".
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.collect_bindings",
    "cli.report_of",
    "cli.render_text",
    "cli.render_json",
    "dsl.parse",
    "dsl.elaborate",
    "algebra.normalize",
    "algebra.apply_test_substitution",
    "algebra.free_vars_tuplix",
    "algebra.denote_ground",
    "expr.fold_constants",
    "expr.substitute_all",
    "expr.evaluate",
    "expr.pretty",
    "meadow.parse_rational",
    "meadow.format_rational",
    "laws.run_law",
)

MODULES = ("cli", "dsl", "algebra", "expr", "meadow", "laws")

# Modules whose layer functions are also wrapped at their own attribute:
# they are called from inside the module (cmd_eval -> collect_bindings,
# run_suite -> run_law) and by the benchmark, never recursively.
SELF_WRAPPED = ("cli", "laws")


def expr_size(e, memo: dict[int, int]) -> int:
    """Nodes of an expression counted as a tree (shared subtrees count each time)."""
    from tuplix.expr import Abs, Add, Inv, Mul, Neg

    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, (Add, Mul)):
            children = (node.left, node.right)
        elif isinstance(node, (Neg, Inv, Abs)):
            children = (node.arg,)
        else:
            memo[id(node)] = 1
            continue
        if expanded:
            memo[id(node)] = 1 + sum(memo[id(c)] for c in children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
    return memo[id(e)]


def term_size(t, memo: dict[int, int]) -> int:
    """Expression nodes inside a budget term."""
    from tuplix.algebra import Comp, Encap, Entry, Test

    total = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Entry):
            total += expr_size(node.amount, memo)
        elif isinstance(node, Test):
            total += expr_size(node.arg, memo)
        elif isinstance(node, Comp):
            stack += (node.left, node.right)
        elif isinstance(node, Encap):
            stack.append(node.body)
    return total


class Tracer:
    """Installs span-recording wrappers; `uninstall` puts the originals back."""

    def __init__(self):
        # Five integers per span: name index, start ns, end ns, parent span, request.
        self.spans = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.parsed_bytes = 0
        self.elaborated: list = []
        self.normalized: list = []  # (request, term, canonical form)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: importlib.import_module(f"tuplix.{name}") for name in MODULES}
        observers = {
            "dsl.parse": self._observe_parse,
            "dsl.elaborate": self._observe_elaborate,
            "algebra.normalize": self._observe_normalize,
        }
        for index, qualname in enumerate(LAYER_FUNCTIONS):
            home_name, func_name = qualname.split(".")
            original = getattr(modules[home_name], func_name, None)
            if original is None:
                continue  # the layer function is gone; it reports zero calls
            wrapper = self._wrap(index, original, observers.get(qualname))
            for module_name, module in modules.items():
                if module_name == home_name and home_name not in SELF_WRAPPED:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index, fn, observe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            position = len(spans) // 5
            spans.extend((index, clock(), 0, stack[-1] if stack else -1, self.request))
            stack.append(position)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[5 * position + 2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self.spans) // 5

    def rows(self):
        """(name index, start ns, end ns, parent, request) of every span, in start order."""
        return zip(*(self.spans[i::5] for i in range(5)))

    def _observe_parse(self, args, result) -> None:
        self.parsed_bytes += len(args[0].encode())

    def _observe_elaborate(self, args, result) -> None:
        self.elaborated.append(result)

    def _observe_normalize(self, args, result) -> None:
        self.normalized.append((self.request, args[0], result))

    def layer_metrics(self, requests: int, scale: float) -> dict[str, float]:
        """Per-request calls, self and total time of every layer function, and counts.

        Times are multiplied by `scale`, the factor to the reference speed.
        """
        n = len(LAYER_FUNCTIONS)
        calls, total_ns, self_ns = [0] * n, [0] * n, [0] * n
        child_ns = [0] * self.span_count()
        for name, start, end, parent, _ in self.rows():
            if parent >= 0:
                child_ns[parent] += end - start
        for position, (name, start, end, _, _) in enumerate(self.rows()):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[position]
        out: dict[str, float] = {}
        for index, qualname in enumerate(LAYER_FUNCTIONS):
            out[f"{qualname}.calls"] = calls[index] / requests
            out[f"{qualname}.self_ms"] = self_ns[index] * scale / 1e6 / requests
            out[f"{qualname}.total_ms"] = total_ns[index] * scale / 1e6 / requests
        parse_ns = total_ns[LAYER_FUNCTIONS.index("dsl.parse")] * scale
        out["dsl.parse.kib_per_s"] = self.parsed_bytes / 1024 / (parse_ns / 1e9) if parse_ns else 0.0

        memo: dict[int, int] = {}
        sizes = [term_size(t, memo) for t in self.elaborated]
        out["dsl.elaborate.out_nodes"] = sum(sizes) / len(sizes) if sizes else 0.0

        forms = [form for _, _, form in self.normalized]
        count = len(forms) or 1
        out["algebra.normalize.residual_tests"] = sum(len(f.tests) for f in forms) / count
        out["algebra.normalize.residual_nodes"] = (
            sum(expr_size(e, memo) for f in forms for e in f.tests) / count
        )
        out["algebra.normalize.null_ratio"] = sum(f.is_null for f in forms) / count
        repeats = 0
        seen: set[tuple[int, int]] = set()
        for request, term, _ in self.normalized:
            key = (request, id(term))  # the list keeps each term alive, so ids stay unique
            repeats += key in seen
            seen.add(key)
        out["algebra.normalize.repeat_ratio"] = repeats / count
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped CSV, one row per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as out:
            writer = csv.writer(out)
            writer.writerow(("request", "span", "parent", "name", "start_ns", "end_ns"))
            for position, (name, start, end, parent, request) in enumerate(self.rows()):
                writer.writerow((request, position, parent, LAYER_FUNCTIONS[name], start, end))
