"""Self-tests of the benchmark: checkers, child control, tracer, seeds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import cases as ladder
import run
from children import run_child
from reference import GeometricModel, bar_cells_per_length, odd_edge_components
from tracer import Profile, Tracer, install, self_times

HERE = Path(__file__).resolve().parent


@pytest.fixture
def work():
    """A scratch directory inside the benchmark's work area."""
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="test-", dir=run.WORK) as tmp:
        yield Path(tmp)


def case_named(name):
    return next(c for cs in ladder.WORKLOADS.values() for c in cs if c.name == name)


def homology_records(groups):
    return [
        {"record": "homology", "dim": k, "free_rank": rank, "torsion": list(torsion)}
        for k, (rank, torsion) in enumerate(groups)
    ]


# -- checker ------------------------------------------------------------------


def test_checker_accepts_the_reference_and_rejects_a_wrong_answer():
    case = case_named("A3-homology")
    right = homology_records([(1, ()), (1, ()), (0, (2,)), (0, ())])
    wrong = homology_records([(1, ()), (1, ()), (0, ()), (0, ())])
    assert ladder.check_records(case, right) is None
    assert "homology" in ladder.check_records(case, wrong)


def test_checker_rejects_wrong_words_and_verdicts():
    nf = case_named("B3-nf-delta2")
    parts = [["a", "b", "c"], ["a", "b", "c"]]
    assert ladder.check_records(nf, [{"record": "normal-form", "parts": parts}]) is None
    assert ladder.check_records(nf, [{"record": "normal-form", "parts": parts[:1]}])

    gcd = case_named("B3-gcd")
    assert ladder.check_records(gcd, [{"record": "gcd", "gcd": list("abcbabc")}]) is None
    assert ladder.check_records(gcd, [{"record": "gcd", "gcd": list("cbabcba")}])

    lcm = case_named("B3-lcm")
    assert ladder.check_records(lcm, [{"record": "lcm", "lcm": list("ababcbabc")}]) is None
    assert ladder.check_records(lcm, [{"record": "lcm", "lcm": list("ababcbaba")}])

    divides = case_named("B3-divides")
    assert ladder.check_records(divides, [{"record": "divides", "result": False}])


def test_beyond_rung_is_checked_against_invariants():
    case = case_named("B3-homology")
    # H_1 of B3 is Z^2 (odd-edge components {a}, {b, c}); chi = 0
    good = homology_records([(1, ()), (2, ()), (2, ()), (1, ())])
    bad_h1 = homology_records([(1, ()), (1, ()), (1, ()), (1, ())])
    bad_chi = homology_records([(1, ()), (2, ()), (1, ()), (1, ())])
    assert ladder.check_records(case, good) is None
    assert "H_1" in ladder.check_records(case, bad_h1)
    assert "Euler" in ladder.check_records(case, bad_chi)


# -- child control ----------------------------------------------------------------


def test_child_past_its_wall_budget_is_a_timeout(work):
    child = run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        env=run.child_env(),
        cwd=work,
        budget_s=0.5,
        memory_mb=256,
    )
    assert child.failure_kind() == "timeout"
    assert child.wall_s < 10


def test_child_past_its_memory_cap_is_oom(work):
    child = run_child(
        [sys.executable, "-c", "block = bytearray(400 << 20)"],
        env=run.child_env(),
        cwd=work,
        budget_s=30,
        memory_mb=200,
    )
    assert child.failure_kind() == "oom"


def test_child_usage_is_its_own(work):
    child = run_child(
        [sys.executable, "-c", "print(sum(range(10**6)))"],
        env=run.child_env(),
        cwd=work,
        budget_s=30,
        memory_mb=256,
    )
    assert child.failure_kind() is None
    assert child.stdout.strip() == str(sum(range(10**6)))
    assert 0 < child.cpu_s <= child.wall_s + 0.05
    assert child.maxrss_mb > 1


def test_a_case_the_run_limit_cuts_is_not_a_timeout(work):
    case = case_named("A3-homology")
    paths = run.write_systems(work, [case.system], 0)
    deadline = time.perf_counter() + 0.3
    with pytest.raises(run.RunLimitError):
        run.run_case(case, paths[case.system], work, traced=False, deadline=deadline)


def test_rounds_stop_before_the_run_limit(work, monkeypatch):
    case = case_named("B3-gcd")
    monkeypatch.setitem(ladder.WORKLOADS, "tiny", [case])
    paths = run.write_systems(work, [case.system], 0)
    deadline = time.perf_counter() + 2.0
    outcomes, _ = run.measure("tiny", paths, work, 60, deadline, run.Calibration())
    assert time.perf_counter() < deadline + 0.5
    assert len(outcomes) > 1
    assert all(outcome == "ok" for _, outcome in outcomes)


def test_times_are_rescaled_to_the_reference_speed(work):
    calibration = run.Calibration()
    calibration.sample(work)
    assert 0 < calibration.cpu[0] <= calibration.wall[0] + 0.01
    calibration.wall, calibration.cpu = [0.1, 0.4, 0.2], [0.25, 0.2, 0.3]
    metrics = {"wall_s": (10.0, "s"), "cpu_s": (5.0, "s"), "setup_s": (0.3, "s"), "peak_rss_mb": (9.0, "MB")}
    scaled = calibration.rescale(metrics)
    assert scaled["wall_s"] == pytest.approx((10.0 * run.REFERENCE_S / 0.2, "s"))
    assert scaled["cpu_s"] == pytest.approx((5.0 * run.REFERENCE_S / 0.25, "s"))
    assert scaled["setup_s"] == pytest.approx((0.3 * run.REFERENCE_S / 0.2, "s"))
    assert scaled["peak_rss_mb"] == (9.0, "MB")


# -- tracer -------------------------------------------------------------------------


def test_self_time_of_a_synthetic_span_tree():
    # root -> a(10) -> b(4) -> c(1); a -> d(3); root -> b(2)
    nodes = [
        [-1, "root", 0, 0.0],
        [0, "a", 1, 10.0],
        [1, "b", 2, 4.0],
        [2, "c", 5, 1.0],
        [1, "d", 1, 3.0],
        [0, "b", 1, 2.0],
    ]
    assert self_times(nodes)[1:] == [3.0, 3.0, 1.0, 3.0, 2.0]
    profile = Profile()
    profile.add({"nodes": nodes, "counters": {"k": 2}, "maxima": {"m": 7}})
    profile.add({"nodes": nodes, "counters": {"k": 1}, "maxima": {"m": 5}})
    assert profile.calls == {"a": 2, "b": 6, "c": 10, "d": 2}
    assert profile.self_s == {"a": 6.0, "b": 10.0, "c": 2.0, "d": 6.0}
    assert profile.counters == {"k": 3} and profile.maxima == {"m": 7}


FAKE_BASE = '''
def helper(n):
    return n + 1

def cells(n):
    if n:
        yield from cells(n - 1)
    yield n

class Thing:
    def method(self):
        return helper(1)
'''

FAKE_USER = '''
from .base import helper, cells, Thing
TABLE = {"helper": helper}

def run():
    return TABLE["helper"](1) + helper(2) + Thing().method() + len(list(cells(3)))
'''


def test_tracer_wraps_names_where_they_are_looked_up(work, monkeypatch):
    package = work / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "base.py").write_text(FAKE_BASE)
    (package / "user.py").write_text(FAKE_USER)
    monkeypatch.syspath_prepend(str(work))
    tracer = Tracer()
    assert install(tracer, package="fakepkg", modules=("base", "user")) == 4
    user = sys.modules["fakepkg.user"]
    assert user.run() == 2 + 3 + 2 + 4
    profile = Profile()
    profile.add(tracer.dump())
    assert profile.calls["user.run"] == 1
    assert profile.calls["base.helper"] == 3  # via the table, the copy, the method
    assert profile.calls["base.method"] == 1
    # one span per next() on each level of the recursive generator
    assert profile.calls["base.cells"] == sum(k + 2 for k in range(4))
    assert tracer.counters["base.cells.items"] == 4
    for name in ("fakepkg", "fakepkg.base", "fakepkg.user"):
        sys.modules.pop(name)


# -- seeds and reference tables ----------------------------------------------------


def parse(text):
    gens, orders = None, {}
    for line in text.splitlines():
        if line.startswith("gens:"):
            gens = line.split()[1:]
        elif line:
            _, s, t, m = line.split()
            orders[frozenset((s, t))] = int(m)
    return gens, orders


@pytest.mark.parametrize("name", sorted(ladder.SYSTEMS))
def test_seed_only_permutes_the_generator_order(name):
    system = ladder.SYSTEMS[name]
    gens0, orders0 = parse(system.text(0))
    assert gens0 == list(system.gens)
    orders_seen = set()
    for seed in range(1, 30):
        gens, orders = parse(system.text(seed))
        assert sorted(gens) == sorted(gens0) and orders == orders0
        orders_seen.add(tuple(gens))
        # answers computed from the permuted file agree with the literal ones
        assert odd_edge_components(gens, orders) == odd_edge_components(gens0, orders0)
        if name in ladder.DELTA_WORD:
            model = GeometricModel(gens, orders)
            assert model.reflection_count() == ladder.REFLECTIONS[name]
    assert len(orders_seen) > 1


def test_reference_tables():
    for name, word in ladder.DELTA_WORD.items():
        system = ladder.SYSTEMS[name]
        model = GeometricModel(system.gens, system.m_table())
        assert len(word) == ladder.REFLECTIONS[name] == model.reflection_count()
        assert model.is_reduced(word)
        assert not any(model.is_reduced(word + s) for s in system.gens)
    counts = bar_cells_per_length(ladder.A3_DELTA_LENGTHS, len(ladder.A3_CELLS_PER_LENGTH) - 1)
    assert counts == ladder.A3_CELLS_PER_LENGTH
    b3 = ladder.SYSTEMS["B3"]
    assert GeometricModel(b3.gens, b3.m_table()).is_reduced("cbabcab")
    for name, groups in ladder.HOMOLOGY.items():
        system = ladder.SYSTEMS[name]
        assert groups[1][0] == odd_edge_components(system.gens, system.m_table())


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_cheap_cases_answer_the_same_under_every_seed(seed, work):
    names = ["A2-verify", "B3-lcm", "B3-gcd", "G2-salvetti", "affine_A2-homology"]
    chosen = [case_named(n) for n in names]
    paths = run.write_systems(work, {c.system for c in chosen}, seed)
    for case in chosen:
        outcome, _, _ = run.run_case(case, paths[case.system], work, traced=False)
        assert outcome == "ok", case.name


def test_run_fails_without_program_sources(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poset", "--seed", "1", "--seconds", "1"],
        cwd=work,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]


def test_benchmark_file_names_every_workload_and_layer_metric():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(ladder.WORKLOADS) == {w["name"] for w in benchmark["workloads"]}
    layer_names = set(run.layer_metrics(Profile(), dict.fromkeys(run.COMMANDS, 0.0), 0.0))
    assert layer_names == {m["name"] for m in benchmark["per_layer"]}
