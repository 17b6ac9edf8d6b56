"""Tests of the benchmark itself, on the A2-only `tiny` workload.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))
from seaweedcoh import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.WORKLOADS["tiny"]


def _run_cli(trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "tiny",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    out = _run_cli(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 16
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for value in out["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_layer_self_times_fit_in_wall():
    m = {k: v["value"] for k, v in _run_cli(1)["metrics"].items()}
    layers = sum(v for k, v in m.items()
                 if k.endswith("_s") and not k.startswith("trace."))
    assert 0 < m["trace.self_sum_s"] <= m["trace.wall_s"]
    assert 0 < m["trace.named_coverage"] <= m["trace.coverage"]
    assert layers <= m["trace.wall_s"] + m["trace.setup_s"]
    assert m["trace.overhead_ratio"] > 0


def _tamper(report):
    report["certificates"] = []


def _raise(report):
    raise ValueError("broken spec")


@pytest.mark.parametrize("damage", [_tamper, _raise])
def test_bad_report_is_a_failure(monkeypatch, damage):
    orig = cli.verify_report

    def verify_report(sw, spec, **kwargs):
        report = orig(sw, spec, **kwargs)
        if spec.pi1 == {1} and spec.pi2 == {2}:
            damage(report)
        return report

    monkeypatch.setattr(cli, "verify_report", verify_report)
    result, record = run.measure(TINY, 1, 0, 0, checks.load_expected())
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (16, 1)
    assert record["failures"][0]["spec"] == "A2:1|2"


def test_seed_changes_order_not_digests():
    expected = checks.load_expected()
    dims = {k: v[1] for k, v in expected.items()}
    first = workloads.inputs(TINY, 1, dims)
    second = workloads.inputs(TINY, 2, dims)
    assert first != second and sorted(first) == sorted(second)
    digests = [run.measure(TINY, seed, 0, 0, expected)[1]["digests"]
               for seed in (1, 2)]
    assert digests[0] == digests[1] == {k: expected[k][0] for k in first}


def test_sample_is_seeded_and_stratified():
    wl = workloads.WORKLOADS["structure-E"]
    dims = {k: v[1] for k, v in checks.load_expected().items()}
    runs = [workloads.inputs(wl, seed, dims) for seed in (1, 1, 2)]
    assert runs[0] == runs[1] != runs[2]
    by_size = sorted(workloads.pool(wl), key=lambda k: -dims[k])
    largest = by_size[:workloads.TOP]
    for keys in runs:
        assert len(set(keys)) == len(keys) == 2 * wl.sample
        assert set(largest) <= set(keys) <= set(workloads.pool(wl))
