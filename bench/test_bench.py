"""Tests of the benchmark itself: output schema, the correctness gate,
repeatable counts and the self-time accounting.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

Workloads run with --tiny (small grids, four problems) and --seconds 0,
which makes exactly two passes over the problem set, so operation counts
are exact.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import EXACT_COUNTS
from spans import Span, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, *extra):
    done = bench(workload, *extra)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def plain():
    return {w: result(w, "--trace", "0") for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: result(w, "--trace", "1") for w in WORKLOADS}


def check_schema(res, metrics):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(plain, workload):
    res = plain[workload]
    check_schema(res, SPEC["end_to_end"])
    assert res["correct"]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["value"] > 0.0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_schema(traced, workload):
    res = traced[workload]
    check_schema(res, SPEC["per_layer"])
    assert res["correct"]
    ratio = res["metrics"]["bench.self_sum_ratio"]["value"]
    assert 0.8 < ratio < 1.2, "layer self times do not add up to the operation time"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(plain, workload):
    res = result(workload, "--trace", "0", "--self-test-corrupt")
    assert res["attempted"] == plain[workload]["attempted"]
    assert res["failed"] == plain[workload]["failed"] + 1
    assert not res["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced, workload):
    again = result(workload, "--trace", "1")
    for name in EXACT_COUNTS:
        assert again["metrics"][name] == traced[workload]["metrics"][name], name


def test_layers_are_exercised(traced):
    m = {w: {k: v["value"] for k, v in traced[w]["metrics"].items()} for w in WORKLOADS}
    assert m["uniform_relax"]["fractional_ops.apply_uniform_s"] > 0
    assert m["uniform_relax"]["fractional_ops.apply_weighted_s"] == 0
    assert m["singular_verify"]["fractional_ops.weighted_build_calls"] == 4
    assert m["singular_verify"]["fractional_ops.weighted_builds_via_verification"] == 3
    assert m["study_ladder"]["special_functions.ml_calls"] == 16 + 32 + 64 + 3
    assert m["study_ladder"]["cli.study_busy_ratio"] > 0
    for w in ("uniform_relax", "singular_verify"):
        assert m[w]["special_functions.ml_calls"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_self_times_share_overlapping_threads():
    root = Span("bench.op", None)
    root.start, root.end = 0.0, 10.0
    main = Span("cli.main", root)
    main.start, main.end = 1.0, 9.0
    a = Span("cli.study_task", main)
    a.start, a.end = 2.0, 6.0
    b = Span("cli.study_task", main)
    b.start, b.end = 4.0, 8.0
    leaf = Span("special_functions.mittag_leffler", a)
    leaf.start, leaf.end = 2.0, 3.0
    own = self_times([root, main, a, b, leaf])
    assert sum(own.values()) == pytest.approx(10.0)
    assert own[id(leaf)] == pytest.approx(1.0)
    assert own[id(a)] == pytest.approx(1.0 + 1.0)        # 3..4 alone, 4..6 shared
    assert own[id(b)] == pytest.approx(1.0 + 2.0)        # 4..6 shared, 6..8 alone
    assert own[id(main)] == pytest.approx(2.0)
    assert own[id(root)] == pytest.approx(2.0)


def test_reference_erfcx():
    special = pytest.importorskip("scipy.special")
    from workloads import erfcx

    for x in (0.0, 0.5, 3.0, 10.0):
        assert erfcx(x) == pytest.approx(float(special.erfcx(x)), rel=1e-13)
