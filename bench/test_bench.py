"""Self-test of the benchmark harness, in a short mode (about a minute).

    python3 -m pytest -q bench/test_bench.py

Runs every workload of ``BENCHMARK.json`` once for one second, untraced,
then two of them and ``compress_chain`` traced, and checks what the harness
prints. It also feeds a deliberately wrong expected value to a workload's
oracle and requires the harness to report every operation as failed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)

# workload-specific end-to-end metric names, by workload, with the unit printed
COMMON = {"setup_s": "s", "ops_per_s": "1/s", "op_cost_ref": "ref", "peak_rss_mb": "MB",
          "error_rate": "fraction"}
NAMED = {
    "compress_bundled": {**COMMON, "compress_s": "s"},
    "query": {**COMMON, "query_p50_us": "us", "query_p99_us": "us", "queries_per_s": "ops/s"},
    "sample": {**COMMON, "sample_runs_per_s": "runs/s"},
}
SEED = 3


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", str(SEED),
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def untraced():
    proc = _bench("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def _named_lines(lines):
    """workload -> {metric: (value, unit)} from the human-readable lines."""
    out, current = {}, None
    for line in lines:
        if line.startswith("# workload="):
            current = line.split()[1].split("=", 1)[1]
            out[current] = {}
        elif current and line and not line.startswith(("#", "{")):
            name, value, unit = line.split()[:3]
            out[current][name] = (float(value), unit)
    return out


def test_every_end_to_end_metric_printed_with_unit(untraced):
    named = _named_lines(untraced)
    assert set(named) == set(NAMED) == {w["name"] for w in CONTRACT["workloads"]}
    for workload, expected in NAMED.items():
        got = {k: unit for k, (_, unit) in named[workload].items()}
        assert got == expected, workload
    result = json.loads(untraced[-1])
    for workload in NAMED:
        for metric in CONTRACT["end_to_end"]:
            item = result["metrics"][f"{workload}.{metric['name']}"]
            assert item["unit"] == metric["unit"]
            assert item["value"] > 0


def test_error_rate_is_zero(untraced):
    result = json.loads(untraced[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(NAMED)
    for workload, metrics in _named_lines(untraced).items():
        assert metrics["error_rate"][0] == 0, workload


@pytest.mark.parametrize("workload", ["compress_bundled", "sample"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{SEED}-trace1.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["trace_summary"]["self_sum_ok"]
    if workload == "compress_bundled":
        # 2k+1 table builds for k regions: 3 regions on polariser_chain
        per_tag = record["trace_summary"]["per_tag"]
        assert per_tag["polariser_chain"]["backends.table_builds"] == 7
    else:
        assert result["metrics"]["operational.runs"]["value"] > 0


def test_traced_chain_shows_the_scaling_hot_spots():
    proc = _bench("--workload", "compress_chain", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(HERE, "out", f"result-compress_chain-seed{SEED}-trace1.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    # 2k+1 table builds for k = 4 regions
    assert record["trace_summary"]["per_tag"]["gen-polariser-4"]["backends.table_builds"] == 9
    # span validation is over half of the pass, so no other layer's share is larger
    metrics = result["metrics"]
    assert metrics["backends.span_validate_s"]["value"] > 0.5 * metrics["cli.main_s"]["value"]


def test_wrong_expectation_counts_as_failure():
    cz, import_s = run.import_program()
    import workloads

    class WrongSample(workloads.Sample):
        def prepare(self):
            super().prepare()
            self.p_exact += 0.25  # deliberately wrong expected value

    record = run.execute(WrongSample, cz, import_s, SEED, 0.5, False)
    assert record["attempted"] > 0
    assert record["failed"] == record["attempted"]
    assert record["correct"] is False
    assert record["named"]["error_rate"]["value"] == 1.0
