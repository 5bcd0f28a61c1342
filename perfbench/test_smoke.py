"""Smoke self-test of the benchmark harness at a tiny size.

Every workload runs untraced and traced on (4,3,13) with its controls,
minsearch (3,3,5), a 20-graph corpus and 3 percolation certificates, in a few
seconds.  It is not part of the package's test suite.  Run it with

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import SMOKE, WORKLOADS, Question

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_answers_and_metrics(name, trace):
    result = run.run_workload(name, seed=7, seconds=0.2, trace=trace, sizes=SMOKE)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_sizes():
    cc = run.fresh_import()
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as files:
        sizes = {name: len(setup(cc, 3, SMOKE, Path(files))) for name, setup in WORKLOADS.items()}
        assert len((Path(files) / "corpus.g6").read_text().splitlines()) == 20
    assert sizes == {"verify-construct": 3, "minsearch-n7": 1, "percolate-grid": 3, "props-corpus": 1}


def test_wrong_crashing_and_unreadable_answers_fail_the_run():
    def crash():
        raise RuntimeError("boom")

    r = run.Run()
    r.one_pass(
        [
            Question("wrong", lambda: 1, lambda answer: (["answer = 1, expected 2"], {})),
            Question("crash", crash, lambda answer: ([], {})),
            Question("unreadable", lambda: {}, lambda answer: answer["missing"]),
        ]
    )
    assert r.result({}) == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}


def test_verify_check_compares_every_field():
    check = workloads._verify_check(34, "co-critical", 0, "found", False)
    good = {"results": {"verdict": "co-critical", "non_edges": 34, "base_status": "found"}}
    assert check(0, good)[0] == []
    bad = {"results": {"verdict": "not-co-critical", "non_edges": 33, "base_status": "exhausted"}}
    assert len(check(1, bad)[0]) == 4


def test_count_mismatch_fails_the_run():
    r = run.Run()
    r.compare("counts", {"nodes": 1}, {"nodes": 1})
    assert r.result({})["correct"]
    r.compare("counts", {"nodes": 1}, {"nodes": 2})
    assert not r.result({})["correct"]


def test_missing_function_and_field_are_reported_not_fatal():
    cc = run.fresh_import()
    del cc.canon.canonical_key
    cc.verify.is_cocritical = lambda *args: object()  # report without per_edge_stats
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cc.verify.is_cocritical()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["verify.is_cocritical.calls"] == 1
    assert tracer.missing_metrics() == [
        "verify.nonedge_walks",
        "verify.nonedge_nodes",
        "canon.canonical_key.calls",
    ]
    run.fresh_import()


def test_without_the_package_it_fails_without_a_result():
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__")
        )
        argv = [sys.executable, "perfbench/run.py", "--workload", "minsearch-n7", "--seed", "1",
                "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
