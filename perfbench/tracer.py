"""Outside-in tracing of the artinhom layers, from the benchmark's own files.

`install` wraps the public functions and methods of each traced module
and rebinds every place the program looks them up: module globals
(`from .bar import iter_cells_of_grade` leaves a copy in `morse` and
`matching`), class attributes, and dicts of functions such as the CLI's
command table.  The program itself is not edited.

Each call is a span named `<module>.<function>`.  Spans with the same
name under the same parent are merged into one node, so a run with
millions of `canon` calls keeps a small tree.  A node's self time is its
total time minus the total time of its children.  Generator functions
get one span per `next`, so their time lands where it is spent.

A few spans also feed counters (cells yielded, class sizes, matrix
entries); those hooks run in a child span `trace.hook` so their cost is
not billed to the layer.

Run as a script it is the traced child:

    python3 perfbench/tracer.py TRACE.json -- --system FILE COMMAND ...

which runs `artinhom.cli.main` under the tracer and writes the merged
span tree to TRACE.json when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "artinhom"
MODULES = ("coxeter", "artin", "bar", "matching", "morse", "homology", "salvetti", "cli")
HOOK = "trace.hook"

# Per-word and per-cell helpers stay unwrapped: a span costs more than
# their body, and their time belongs to the caller's layer (ShortLex keys
# of `min` in `artin.canon`, for instance).
LEAVES = frozenset(
    "coxeter." + f
    for f in ("key", "index", "m", "check_word", "check_subset", "sorted_subset", "cache_put")
) | {"morse.add_cell", "morse.add_match"}


class Tracer:
    """Merged span tree plus named counters, kept in memory."""

    def __init__(self):
        self.parent = [-1]
        self.name = ["root"]
        self.calls = [0]
        self.total = [0.0]
        self.children: list[dict[str, int]] = [{}]
        self.stack = [0]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.canon_words: set = set()
        self._held: dict[int, object] = {}

    def node(self, parent: int, name: str) -> int:
        node = self.children[parent].get(name)
        if node is None:
            node = len(self.name)
            self.children[parent][name] = node
            self.parent.append(parent)
            self.name.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.children.append({})
        return node

    # -- counters ------------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def new_object(self, obj) -> bool:
        """Whether this object was not returned before (held, so ids stay unique)."""
        if id(obj) in self._held:
            return False
        self._held[id(obj)] = obj
        return True

    def run_hook(self, hook, args, result) -> None:
        node = self.node(self.stack[-1], HOOK)
        start = perf_counter()
        hook(self, args, result)
        self.total[node] += perf_counter() - start
        self.calls[node] += 1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, calls, total, node_of = self.stack, self.calls, self.total, self.node
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = node_of(stack[-1], name)
            stack.append(node)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total[node] += perf_counter() - start
                calls[node] += 1
                stack.pop()
            if hook is not None:
                self.run_hook(hook, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        stack, calls, total, node_of = self.stack, self.calls, self.total, self.node
        items_key = f"{name}.items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # items count only for the outermost call of a recursive chain
            outermost = self.name[stack[-1]] != name
            gen = fn(*args, **kwargs)
            while True:
                node = node_of(stack[-1], name)
                stack.append(node)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    total[node] += perf_counter() - start
                    calls[node] += 1
                    stack.pop()
                if outermost:
                    self.counters[items_key] = self.counters.get(items_key, 0) + 1
                yield item

        return traced

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "nodes": [
                [self.parent[i], self.name[i], self.calls[i], self.total[i]]
                for i in range(len(self.name))
            ],
            "counters": self.counters,
            "maxima": self.maxima,
        }


# -- counters fed from results ---------------------------------------------------


def _closure_words(tracer, args, result):
    if tracer.new_object(result):
        tracer.add("coxeter.braid_closure.words", len(result))


def _canon_repeat(tracer, args, result):
    word = tuple(args[1])
    if word in tracer.canon_words:
        tracer.add("artin.canon.repeats")
    else:
        tracer.canon_words.add(word)


def _class_words(tracer, args, result):
    if tracer.new_object(result):
        tracer.add("artin.equiv_class.words", len(result))
        tracer.peak("artin.equiv_class.max_words", len(result))


def _grade_entries(tracer, args, result):
    tracer.add(
        "bar.grade_complex.entries",
        sum(len(m) * (len(m[0]) if m else 0) for m in result.boundaries.values()),
    )


def _audit_cells(tracer, args, result):
    tracer.add("matching.audit_grade.cells", result.cells)


def _cells_built(tracer, args, result):
    tracer.add("morse.cells_built", len(result.dims))


def _essentials(tracer, args, result):
    tracer.add("morse.essentials", len(args[1]))


def _matrix_size(tracer, args, result):
    matrix = args[0]
    tracer.add("homology.matrix_entries", len(matrix) * (len(matrix[0]) if matrix else 0))
    tracer.add("homology.nonzeros", sum(1 for row in matrix for v in row if v))


def _core_size(tracer, args, result):
    matrix = args[0]
    tracer.peak("homology.dense_core_max", len(matrix) * (len(matrix[0]) if matrix else 0))


def _chains(tracer, args, result):
    tracer.add("salvetti.order_complex.chains", len(result))


HOOKS = {
    "coxeter.braid_closure": _closure_words,
    "artin.canon": _canon_repeat,
    "artin.equiv_class": _class_words,
    "bar.grade_complex": _grade_entries,
    "matching.audit_grade": _audit_cells,
    "morse.build_cell_graph": _cells_built,
    "morse.morse_boundary": _essentials,
    "homology.invariant_factors": _matrix_size,
    "homology.smith_normal_form": _core_size,
    "salvetti.order_complex": _chains,
}


# -- installation -------------------------------------------------------------


def install(tracer: Tracer, package: str = PACKAGE, modules=MODULES) -> int:
    """Wrap every public function of the modules; return how many."""
    loaded = [importlib.import_module(f"{package}.{m}") for m in modules]
    wrapped: dict = {}
    names: set[str] = set()

    def wrap(short, fn):
        name = f"{short}.{fn.__name__}"
        if name in LEAVES:
            return fn
        if name in names:
            raise ValueError(f"two functions traced as {name}")
        names.add(name)
        wrapped[fn] = tracer.wrap(name, fn)
        return wrapped[fn]

    for short, module in zip(modules, loaded):
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrap(short, value)
            elif inspect.isclass(value):
                for method, fn in list(vars(value).items()):
                    if not method.startswith("_") and inspect.isfunction(fn):
                        setattr(value, method, wrap(short, fn))
    # rebind each name where it is looked up, not only where it is defined
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == package]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]
    return len(wrapped)


# -- reading a trace -------------------------------------------------------------


def self_times(nodes) -> list[float]:
    """Per node: its total time minus the total time of its children."""
    own = [total for _, _, _, total in nodes]
    for parent, _, _, total in nodes:
        if parent >= 0:
            own[parent] -= total
    return own


class Profile:
    """Calls, self time and counters summed over one or more traces."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, trace: dict) -> None:
        nodes = trace["nodes"]
        for (parent, name, calls, _), own in zip(nodes, self_times(nodes)):
            if parent < 0:
                continue  # the root holds no time of its own
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_s[name] = self.self_s.get(name, 0.0) + own
        for key, value in trace["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in trace["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
