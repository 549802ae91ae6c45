"""Tests of the serving benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
Every workload is shrunk to a few hundred calls so a full run (set-up,
warm-up, timed window, reference fingerprint) takes about a second.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import run  # noqa: E402
from checks import check_result  # noqa: E402
from workloads import WORKLOADS, base_workload  # noqa: E402

BENCHMARK_JSON = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "serve-50k": dict(calls=300, initial_calls=300, setup_repeats=2),
    "sharded-100k-ckpt": dict(calls=600, initial_calls=600, setup_repeats=2),
    "churn-mbac": dict(calls=60, initial_calls=48, warmup_epochs=48,
                       setup_repeats=2),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {name: tiny(name) for name in TINY})


def run_main(capsys, tmp_path, *args):
    code = run.main(list(args) + ["--out-dir", str(tmp_path), "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK_JSON["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_named_metric(
    name, trace, tiny_workloads, capsys, tmp_path
):
    code, line = run_main(
        capsys, tmp_path, "--workload", name, "--seed", "3", "--trace", str(trace)
    )
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK_JSON[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] != 0 for v in line["metrics"].values())
    else:
        accounted = line["metrics"]["trace.accounted_frac"]["value"]
        assert 0.9 < accounted <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def serve_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return run.run_benchmark(tiny("serve-50k"), 5, 1.0, False, out, recorded={})


def test_output_check_accepts_the_real_report(serve_result):
    assert check_result(serve_result) == []


@pytest.mark.parametrize(
    "field, identity",
    [
        ("blocked", "arrivals = blocked + admitted"),
        ("active_calls", "admitted - departed = active_calls"),
        ("abandoned", "completed + abandoned = departed"),
    ],
)
def test_output_check_rejects_a_doctored_snapshot(serve_result, field, identity):
    doctored = copy.deepcopy(serve_result)
    doctored["finals"]["measured"][field] += 1
    failures = check_result(doctored)
    assert any(identity in failure for failure in failures)


def test_output_check_rejects_a_doctored_fingerprint(serve_result):
    doctored = copy.deepcopy(serve_result)
    doctored["fingerprint_checks"][0]["got"] = "0" * 64
    failures = check_result(doctored)
    assert len(failures) == 1 and "serve-50k: fingerprint" in failures[0]


def test_output_check_rejects_a_wrong_recorded_fingerprint(tmp_path):
    shape = tiny("serve-50k")
    recorded = {
        shape.name: {
            "behaviour_key": shape.behaviour_key(),
            "prefix_fingerprints": {"2": "f" * 64},
        }
    }
    result = run.run_benchmark(shape, 2, 1.0, False, tmp_path, recorded=recorded)
    failures = check_result(result)
    assert len(failures) == 1 and "recorded for seed 2" in failures[0]


def test_nonzero_exit_on_failed_check(tiny_workloads, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        run, "check_result", lambda result: ["serve-50k: forced failure"]
    )
    code, line = run_main(
        capsys, tmp_path, "--workload", "serve-50k", "--seed", "1", "--trace", "0"
    )
    assert code == 1 and line["correct"] is False


@pytest.mark.parametrize("name", sorted(TINY))
def test_trace_does_not_change_the_fingerprint(name, tmp_path):
    result = run.run_benchmark(tiny(name), 4, 1.0, True, tmp_path, recorded={})
    assert check_result(result) == []
    runs = result["runs"]
    traced = [label for label in runs if label.startswith("traced")]
    assert len(traced) == WORKLOADS[name].sub_runs
    for label in traced:
        untraced = runs[label.replace("traced", "measured")]
        assert runs[label]["fingerprint"] == untraced["fingerprint"]


def test_seed_changes_the_inputs(tmp_path):
    one, two = base_workload(1), base_workload(2)
    assert one.bits_per_slot.tobytes() != two.bits_per_slot.tobytes()
    shape = tiny("churn-mbac")
    assert shape.sub_seeds(1) != shape.sub_seeds(2)
    assert shape.config(1, one).seed == 1 and shape.config(2, two).seed == 2

    def fingerprints(seed):
        result = run.run_benchmark(shape, seed, 1.0, False, tmp_path, recorded={})
        return [r["fingerprint"] for r in result["runs"].values()]

    first = fingerprints(1)
    assert fingerprints(1) == first
    assert not set(fingerprints(2)) & set(first)
