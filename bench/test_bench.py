"""Tests of the benchmark itself: python3 -m pytest bench"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer, leftover_wrappers

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


def bench(workload, *, seconds=0.1, trace=0, seed=7, env_extra=None, cwd=workloads.ROOT):
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def prog():
    return workloads.import_program()


def test_oracle_matches_known_counts():
    known = {(3, 2): 8, (5, 1): 7, (5, 2): 39, (5, 3): 206, (6, 1): 11, (6, 2): 92}
    for (n, rank), count in known.items():
        assert workloads.commuting_orbits_symmetric(n, rank) == count


def test_benchmark_json_lists_every_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    res = result_of(bench(name))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert sorted(res["metrics"]) == sorted(n for n, _, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_injected_fault_counts_as_failure():
    res = result_of(bench("verify_corpus", env_extra={"EULERCHI_INJECT_FAULT": "lambda_plus_one"}))
    assert not res["correct"] and res["failed"] == res["attempted"] > 0


def test_tampered_oracle_counts_as_failure(prog, tmp_path):
    wl = workloads.WORKLOADS["symmetric_scale"]
    inputs = wl.generate(7, tmp_path)
    inst = next(i for i in inputs["instances"] if i.n == 5 and i.rank == 1)
    assert wl.instance(prog, inputs, inst).ok
    tampered = dataclasses.replace(inst, expected=inst.expected + 1)
    assert not wl.instance(prog, inputs, tampered).ok


def test_tracer_is_removed_completely(prog):
    originals = {
        "translation.fixed_subcomplex": prog.translation.fixed_subcomplex,
        "harness.integrate": prog.harness.integrate,
        "FiniteGroup.__init__": prog.groups.FiniteGroup.__init__,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert "eulerchi.harness.integrate" in leftover_wrappers()
        prog.harness.run_suite(seed=3, cases=2)
    finally:
        tracer.remove()
    assert leftover_wrappers() == []
    assert prog.translation.fixed_subcomplex is originals["translation.fixed_subcomplex"]
    assert prog.harness.integrate is originals["harness.integrate"] is prog.cells.integrate
    assert prog.groups.FiniteGroup.__init__ is originals["FiniteGroup.__init__"]
    assert tracer.stats["translation.fixed_subcomplex"]["calls"] > 0


@pytest.mark.parametrize("name", ["verify_corpus", "cli_batch"])
def test_traced_counts_repeat_across_hash_seeds(name):
    runs = [
        result_of(bench(name, trace=1, env_extra={"PYTHONHASHSEED": h}))
        for h in ("0", "12345")
    ]
    counts = []
    for res in runs:
        assert res["correct"] and res["failed"] == 0  # includes traced == untraced output
        assert sorted(res["metrics"]) == sorted(n for n, _, _ in run.per_layer_spec())
        counts.append({k: m["value"] for k, m in res["metrics"].items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["translation.fixed_subcomplex.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(workloads.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench("verify_corpus", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
