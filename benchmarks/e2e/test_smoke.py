"""Smoke test of the benchmark itself; invoked explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

(tier-1's ``testpaths`` stays ``tests``.)  Runs every workload at
``scale`` = 0.02, untraced and traced, and checks the shape of what the
benchmark prints against ``BENCHMARK.json`` and ``params.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, ROOT)

from benchmarks.e2e import params as P  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = {}
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
            results[result["workload"], result["trace"]] = result
    return results


def test_benchmark_json_matches_params():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == P.REF_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(P.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [m[:4] for m in P.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(P.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("workload", list(P.WORKLOADS))
def test_every_metric_once_with_unit(smoke, workload):
    untraced = smoke[workload, 0]
    traced = smoke[workload, 1]
    assert untraced["correct"] and traced["correct"]
    assert untraced["failed"] == 0 and traced["failed"] == 0
    assert list(untraced["metrics"]) == [m[0] for m in P.END_TO_END]
    assert list(traced["metrics"]) == [m[0] for m in P.PER_LAYER]
    for metrics, spec in ((untraced["metrics"], P.END_TO_END),
                          (traced["metrics"], P.PER_LAYER)):
        for name, unit, *_ in spec:
            assert NAME.match(name)
            assert metrics[name]["unit"] == unit
            assert isinstance(metrics[name]["value"], float)
    for name, *_ in P.END_TO_END:
        assert untraced["metrics"][name]["value"] > 0, name
    for name in ("trace.ingest_sum_ratio", "trace.query_sum_ratio"):
        assert 0.9 <= traced["metrics"][name]["value"] <= 1.1, name
