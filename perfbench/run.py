"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload collapse --seed 3 --seconds 30 --trace 0

Run from a source checkout: children import `artinhom` from `src/` next to
this directory, each case as a fresh CLI process, one at a time (a closed
loop with a single client).  The seed permutes the `gens:` line of every
system file (seed 0 keeps the listed order); answers never depend on it.

`--trace 0` repeats the workload's case sequence while the next round
still fits in `--seconds` and reports end-to-end metrics built from
per-case medians over the rounds, with times scaled to a reference host
speed (see `CALIBRATION_CHILD`).  `--trace 1` runs each case that
answers today once plainly and once under `tracer.py`, and reports the
per-layer metrics.  Every answer is checked in both modes.  The last line
of standard output is the result; lines before it describe each case.
Without the program's sources, or when the run's time limit would cut a
case short, the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import cases as ladder
from children import run_child
from tracer import MODULES, Profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MEMORY_MB = 1024
SETUP_REPEATS = 9
SETUP_BUDGET_S = 10.0
TRACE_BUDGET_FACTOR = 4
RUN_LIMIT_S = 160.0  # every child budget ends by then, so a run exits within 180 s
BUDGET_KINDS = ("timeout", "oom")  # how a beyond-limit rung may fail

# The child that measures set-up: import the package from the checkout and
# parse every system file.
PARSE_CHILD = """
import sys
from pathlib import Path
import artinhom.cli as cli
src = Path(sys.argv[1]).resolve()
if src not in Path(cli.__file__).resolve().parents:
    sys.exit(f"artinhom imported from {cli.__file__}, not from {src}")
for path in sys.argv[2:]:
    cli.parse_system_file(Path(path).read_text())
"""

# A fixed pure-Python loop, run in a child between the cases; the child
# times the loop alone, without its own start-up.  The program is
# single-threaded pure Python as well, so when the shared host slows down,
# both slow down together.  Times are reported at the speed at which this
# loop takes REFERENCE_S (wall and CPU alike).
CALIBRATION_CHILD = """
import time

def loop(n):
    total = 0
    for i in range(n):
        total += i * i
    return total

wall, cpu = time.perf_counter(), time.process_time()
loop(1_000_000)
print(time.perf_counter() - wall, time.process_time() - cpu)
"""
REFERENCE_S = 0.1

COMMANDS = tuple(dict.fromkeys(c.command for cs in ladder.WORKLOADS.values() for c in cs))


class SetupError(RuntimeError):
    pass


class RunLimitError(RuntimeError):
    """The run's time limit, not the program, cut a case short."""


class Calibration:
    """Wall and CPU times of the calibration loop, sampled over one run."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, work: Path) -> None:
        child = run_child(
            [sys.executable, "-c", CALIBRATION_CHILD],
            env=child_env(),
            cwd=work,
            budget_s=SETUP_BUDGET_S,
            memory_mb=MEMORY_MB,
        )
        if child.failure_kind():
            raise SetupError(f"calibration child failed: {child.failure_kind()}")
        wall, cpu = map(float, child.stdout.split())
        self.wall.append(wall)
        self.cpu.append(cpu)

    def rescale(self, metrics: dict) -> dict:
        """The metrics with their times at the reference speed.

        Prints the times as measured first.
        """
        wall, cpu = statistics.median(self.wall), statistics.median(self.cpu)
        scale = {"wall_s": REFERENCE_S / wall, "cpu_s": REFERENCE_S / cpu, "setup_s": REFERENCE_S / wall}
        measured = " ".join(f"{name}={metrics[name][0]:.4f}" for name in scale)
        print(
            f"as measured: {measured}; calibration loop, median of {len(self.wall)}: "
            f"wall={wall:.4f}s cpu={cpu:.4f}s"
        )
        return {name: (v * scale.get(name, 1.0), unit) for name, (v, unit) in metrics.items()}


def child_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(WORK / "pycache"),
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


def write_systems(directory: Path, names, seed: int) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = directory / f"{name}.system"
        path.write_text(ladder.SYSTEMS[name].text(seed))
        paths[name] = path
    return paths


def set_up(work: Path, names, seed: int, calibration: Calibration) -> tuple[dict[str, Path], float]:
    """Write the seed's system files and time a child parsing them.

    Returns the files and the median set-up time over SETUP_REPEATS; a
    first, untimed child fills the bytecode cache.  Each timed repeat
    follows a calibration sample.
    """
    env = child_env()
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        if repeat:
            calibration.sample(work)
        start = time.perf_counter()
        paths = write_systems(work / "systems", names, seed)
        generated = time.perf_counter() - start
        child = run_child(
            [sys.executable, "-c", PARSE_CHILD, str(SRC), *map(str, paths.values())],
            env=env,
            cwd=work,
            budget_s=SETUP_BUDGET_S,
            memory_mb=MEMORY_MB,
        )
        if child.failure_kind():
            raise SetupError(f"set-up child failed: {child.stderr.strip()[-500:]}")
        if repeat:
            times.append(generated + child.wall_s)
    return paths, statistics.median(times)


def cli_args(case, path: Path) -> list[str]:
    """The `artinhom` command-line arguments of a case."""
    return ["--system", str(path), "--format", "jsonl", *case.argv]


def traced_argv(case, path: Path, trace_path: Path) -> list[str]:
    """The case under `tracer.py`, which writes its trace to `trace_path`."""
    return [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *cli_args(case, path)]


def run_case(case, path: Path, work: Path, traced: bool, deadline: float = math.inf):
    """Run one case; return (outcome, child run, trace or None).

    The child's budget is cut short at `deadline` (a `perf_counter` time);
    if that cut makes it time out, RunLimitError is raised instead of
    recording a timeout.
    """
    budget = case.budget_s
    if traced:
        trace_path = work / "trace.json"
        trace_path.unlink(missing_ok=True)
        argv = traced_argv(case, path, trace_path)
        budget *= TRACE_BUDGET_FACTOR
    else:
        argv = [sys.executable, "-m", "artinhom.cli", *cli_args(case, path)]
    left = deadline - time.perf_counter()
    if left <= 0:
        raise RunLimitError(f"{case.name}: no time left in the run")
    child = run_child(argv, env=child_env(), cwd=work, budget_s=min(budget, left), memory_mb=MEMORY_MB)
    if child.timed_out and left < budget:
        raise RunLimitError(f"{case.name}: the run's time limit cut its {budget:g} s budget")
    outcome = child.failure_kind()
    if outcome is None:
        try:
            records = [json.loads(line) for line in child.stdout.splitlines() if line.strip()]
            reason = ladder.check_records(case, records)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            reason = f"unreadable output: {err!r}"
        outcome = "ok" if reason is None else "wrong-answer"
        if reason:
            print(f"  {case.name}: wrong answer: {reason}")
    trace = None
    if traced and outcome == "ok":
        trace = json.loads(trace_path.read_text())
    return outcome, child, trace


def unexpected(case, outcome: str) -> bool:
    """A failure that counts in `failed`: anything but a beyond-limit rung
    running out of its budget."""
    if outcome == "ok":
        return False
    return not (case.beyond and outcome in BUDGET_KINDS)


def describe(label, case, outcome, child):
    print(
        f"{label} {case.name}: {outcome} wall={child.wall_s:.3f}s "
        f"cpu={child.cpu_s:.3f}s rss={child.maxrss_mb:.1f}MB",
        flush=True,
    )


def measure(workload, paths, work, seconds, deadline, calibration: Calibration):
    """Run rounds of the case sequence while the next round still fits.

    A round starts only if a round as long as the last one would end
    within `seconds` and before `deadline`; if the deadline still cuts a
    case of a later round, measuring ends there.  Only cases that
    answered in the first round are repeated; a failed case counts once,
    at its wall budget.  Each metric sums (or, for RSS, takes the largest
    of) per-case medians over the rounds.  A calibration sample precedes
    every case; times are returned as measured, not yet scaled.
    """
    cases = ladder.WORKLOADS[workload]
    runs = {case.name: [] for case in cases}
    outcomes = []
    start = time.perf_counter()
    for round_no in itertools.count(1):
        round_start = time.perf_counter()
        try:
            for case in cases:
                if round_no > 1 and runs[case.name][0][0] != "ok":
                    continue
                calibration.sample(work)
                outcome, child, _ = run_case(case, paths[case.system], work, False, deadline)
                describe(f"round {round_no}", case, outcome, child)
                outcomes.append((case, outcome))
                wall = child.wall_s if outcome == "ok" else case.budget_s
                runs[case.name].append((outcome, wall, child.cpu_s, child.maxrss_mb))
        except RunLimitError:
            if round_no == 1:
                raise
            break
        now = time.perf_counter()
        round_s = now - round_start
        if (now - start) + round_s > seconds or now + round_s > deadline:
            break

    def median(case, field):
        return statistics.median(sample[field] for sample in runs[case.name])

    metrics = {
        "wall_s": (sum(median(case, 1) for case in cases), "s"),
        "cpu_s": (sum(median(case, 2) for case in cases), "s"),
        "peak_rss_mb": (max(median(case, 3) for case in cases if not case.beyond), "MB"),
        "pass_ratio": (
            sum(all(s[0] == "ok" for s in runs[case.name]) for case in cases) / len(cases),
            "ratio",
        ),
    }
    return outcomes, metrics


def trace(workload, paths, work, deadline):
    profile = Profile()
    outcomes = []
    command_wall = {c: 0.0 for c in COMMANDS}
    plain_wall = traced_wall = 0.0
    for case in ladder.WORKLOADS[workload]:
        if case.beyond:
            continue  # its counts would depend on where the budget cut it
        outcome, plain, _ = run_case(case, paths[case.system], work, False, deadline)
        describe("plain", case, outcome, plain)
        outcomes.append((case, outcome))
        outcome, traced, trace_tree = run_case(case, paths[case.system], work, True, deadline)
        describe("traced", case, outcome, traced)
        outcomes.append((case, outcome))
        if trace_tree is not None:
            profile.add(trace_tree)
        command_wall[case.command] += plain.wall_s
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
    return outcomes, layer_metrics(profile, command_wall, traced_wall - plain_wall)


def layer_metrics(p: Profile, command_wall, overhead_s):
    calls, own, counters = p.calls, p.self_s, p.counters

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    canon_calls = calls.get("artin.canon", 0)
    cells_built = counters.get("morse.cells_built", 0)
    divisibility = (
        "left_divides right_divides left_divisors right_divisors left_quotient "
        "right_quotient left_gcd right_gcd left_lcm right_lcm"
    ).split()
    m = {
        "coxeter.canon.calls": (calls.get("coxeter.canon", 0), "count"),
        "coxeter.canon.self_s": (own.get("coxeter.canon", 0.0), "s"),
        "coxeter.braid_closure.words": (counters.get("coxeter.braid_closure.words", 0), "count"),
        "artin.canon.calls": (canon_calls, "count"),
        "artin.canon.self_s": (own.get("artin.canon", 0.0), "s"),
        "artin.canon.repeat_ratio": (ratio(counters.get("artin.canon.repeats", 0), canon_calls), "ratio"),
        "artin.equiv_class.calls": (calls.get("artin.equiv_class", 0), "count"),
        "artin.equiv_class.self_s": (own.get("artin.equiv_class", 0.0), "s"),
        "artin.equiv_class.words": (counters.get("artin.equiv_class.words", 0), "count"),
        "artin.equiv_class.max_words": (p.maxima.get("artin.equiv_class.max_words", 0), "count"),
        "artin.divisibility.self_s": (sum(own.get(f"artin.{f}", 0.0) for f in divisibility), "s"),
        "bar.cells": (counters.get("bar.iter_cells_of_grade.items", 0), "count"),
        "bar.iter_cells_of_grade.self_s": (own.get("bar.iter_cells_of_grade", 0.0), "s"),
        "bar.faces.calls": (calls.get("bar.faces", 0) + calls.get("bar.merge_faces", 0), "count"),
        "bar.grade_complex.self_s": (own.get("bar.grade_complex", 0.0), "s"),
        "bar.grade_complex.entries": (counters.get("bar.grade_complex.entries", 0), "count"),
        "matching.partner.calls": (calls.get("matching.partner", 0), "count"),
        "matching.partner.self_s": (own.get("matching.partner", 0.0), "s"),
        "matching.audit_grade.self_s": (own.get("matching.audit_grade", 0.0), "s"),
        "matching.audit_grade.cells": (counters.get("matching.audit_grade.cells", 0), "count"),
        "morse.build_cell_graph.self_s": (own.get("morse.build_cell_graph", 0.0), "s"),
        "morse.cells_built": (cells_built, "count"),
        "morse.morse_boundary.self_s": (own.get("morse.morse_boundary", 0.0), "s"),
        "morse.essential_ratio": (ratio(counters.get("morse.essentials", 0), cells_built), "ratio"),
        "homology.invariant_factors.calls": (calls.get("homology.invariant_factors", 0), "count"),
        "homology.invariant_factors.self_s": (own.get("homology.invariant_factors", 0.0), "s"),
        "homology.matrix_entries": (counters.get("homology.matrix_entries", 0), "count"),
        "homology.nonzeros": (counters.get("homology.nonzeros", 0), "count"),
        "homology.dense_core_max": (p.maxima.get("homology.dense_core_max", 0), "count"),
        "homology.smith_normal_form.self_s": (own.get("homology.smith_normal_form", 0.0), "s"),
        "homology.check_composition.self_s": (own.get("homology.check_composition", 0.0), "s"),
        "salvetti.sal_leq.calls": (calls.get("salvetti.sal_leq", 0), "count"),
        "salvetti.order_complex.chains": (counters.get("salvetti.order_complex.chains", 0), "count"),
        "salvetti.cell_pair_check.self_s": (own.get("salvetti.cell_pair_check", 0.0), "s"),
        "cli.parse_system_file.self_s": (own.get("cli.parse_system_file", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for command, wall in command_wall.items():
        m[f"cli.{command}.wall_s"] = (wall, "s")
    for layer in MODULES + ("trace",):
        m[f"layer.{layer}.self_s"] = (p.layer_self_s(layer), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ladder.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "artinhom" / "cli.py").is_file():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    systems = sorted({c.system for c in ladder.WORKLOADS[args.workload]})
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            paths = write_systems(work / "systems", systems, args.seed)
            outcomes, metrics = trace(args.workload, paths, work, deadline)
        else:
            calibration = Calibration()
            paths, setup_s = set_up(work, systems, args.seed, calibration)
            outcomes, metrics = measure(args.workload, paths, work, args.seconds, deadline, calibration)
            metrics["setup_s"] = (setup_s, "s")
            metrics = calibration.rescale(metrics)
    except (SetupError, RunLimitError) as err:
        print(err, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": all(outcome != "wrong-answer" for _, outcome in outcomes),
        "attempted": len(outcomes),
        "failed": sum(unexpected(case, outcome) for case, outcome in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
