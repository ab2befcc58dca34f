"""Compare the tracer's layer self-time shares with cProfile on one case.

    python3 perfbench/profile_check.py collapse A3-homology

Runs the case on the seed-0 system files twice, once under `tracer.py`
and once under cProfile, and prints each layer's share of the self time spent in the program.  In the
cProfile column, time in built-ins and in the helpers the tracer leaves
unwrapped is charged to the module that called them, as the tracer does.
"""

from __future__ import annotations

import argparse
import json
import pstats
import sys
import tempfile
from pathlib import Path

import cases as ladder
from children import run_child
from run import MEMORY_MB, WORK, child_env, cli_args, traced_argv, write_systems
from tracer import LEAVES, MODULES, Profile


def layer_of(filename: str) -> str | None:
    path = Path(filename)
    if path.parent.name == "artinhom" and path.stem in MODULES:
        return path.stem
    return None


def cprofile_self(stats_path: Path) -> dict[str, float]:
    """Self time per `layer.function`, as the tracer would name it."""
    stats = pstats.Stats(str(stats_path)).stats
    own: dict[str, float] = {}

    def charge(func, amount, seen):
        filename, _, name = func
        layer = layer_of(filename)
        inner = name.startswith("<")  # a comprehension runs for its function
        if layer is not None and not inner and f"{layer}.{name}" not in LEAVES:
            key = f"{layer}.{name}"
            own[key] = own.get(key, 0.0) + amount
            return
        # built-ins, comprehensions and untraced helpers count for their caller
        callers = stats[func][4]
        weight = sum(tt for _, _, tt, _ in callers.values())
        if func in seen or not weight:
            return
        for caller, (_, _, tt, _) in callers.items():
            charge(caller, amount * tt / weight, seen | {func})

    for func, (_, _, tottime, _, _) in stats.items():
        charge(func, tottime, frozenset())
    return own


def trace_self(trace: dict) -> dict[str, float]:
    profile = Profile()
    profile.add(trace)
    return {k: v for k, v in profile.self_s.items() if k.split(".")[0] in MODULES}


def shares(own: dict[str, float]) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Share of each layer, and the five functions with the largest share."""
    total = sum(own.values())
    layers = {
        layer: sum(v for k, v in own.items() if k.startswith(layer + ".")) / total
        for layer in MODULES
    }
    top = sorted(own.items(), key=lambda kv: -kv[1])[:5]
    return layers, [(k, v / total) for k, v in top]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(ladder.WORKLOADS))
    parser.add_argument("case")
    args = parser.parse_args(argv)
    case = next((c for c in ladder.WORKLOADS[args.workload] if c.name == args.case), None)
    if case is None:
        parser.error(f"no case {args.case} in {args.workload}")
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="profile-", dir=WORK) as tmp:
        work = Path(tmp)
        path = write_systems(work, [case.system], 0)[case.system]
        profiled = [sys.executable, "-m", "cProfile", "-o", str(work / "stats"), "-m", "artinhom.cli"]
        runs = {
            "tracer": traced_argv(case, path, work / "trace.json"),
            "cProfile": profiled + cli_args(case, path),
        }
        for label, argv in runs.items():
            child = run_child(
                argv,
                env=child_env(),
                cwd=work,
                budget_s=case.budget_s * 10,
                memory_mb=MEMORY_MB,
            )
            if child.failure_kind():
                print(f"{label} run failed: {child.failure_kind()}", file=sys.stderr)
                return 1
            print(f"{label}: {child.wall_s:.2f}s wall")
        traced, traced_top = shares(trace_self(json.loads((work / "trace.json").read_text())))
        profiled, profiled_top = shares(cprofile_self(work / "stats"))
    print(f"{'layer':10s} {'tracer':>8s} {'cProfile':>9s}")
    for layer in MODULES:
        print(f"{layer:10s} {traced[layer]:8.1%} {profiled[layer]:9.1%}")
    for label, top in (("tracer", traced_top), ("cProfile", profiled_top)):
        print(f"{label} top functions: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
