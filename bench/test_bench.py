"""Smoke test of the benchmark itself (not collected by tier-1):

    python -m pytest bench -q

Every workload runs both passes at ``--smoke`` size in this process.
"""

import json
import os
import re

import pytest

import layers
import run

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(workload, trace):
    args = run.parse_args(["--workload", workload, "--smoke", "--seconds",
                           "0.1", "--trace", str(trace)])
    record, _ = run.run_workload(args)
    return record


def test_contract_names_and_bounds():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(WORKLOADS) == set(run.wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert set(layers.PARTITION) <= {m["name"] for m in CONTRACT["per_layer"]}


def test_expected_holds_one_digest_for_serial_cached_and_parallel():
    expected = run.load_expected()
    assert expected["seed"] == run.DEFAULT_SEED
    assert set(expected["workloads"]) == set(WORKLOADS)
    assert len({entry["digest"] for name, entry
                in expected["workloads"].items()
                if name.startswith("run_all_")}) == 1
    for name, entry in expected["workloads"].items():
        assert set(entry["exact"]) == \
            set(run.EXACT) - set(run.wl.WORKLOADS[name].inexact)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass_emits_every_declared_metric(workload):
    record = smoke(workload, 0)
    assert set(record["metrics"]) == {m["name"] for m in
                                      CONTRACT["end_to_end"]}
    for metric in record["metrics"].values():
        assert metric["value"] > 0
    assert record["attempted"] >= 1
    assert record["stamp"]["claim"] is None
    assert {"python", "platform", "nproc", "commit", "seed"} \
        <= set(record["stamp"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_partitions_the_round(workload):
    record = smoke(workload, 1)
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    parts = sum(metrics[name] for name in layers.PARTITION)
    assert parts == pytest.approx(metrics["traced_round_s"], rel=0.02)
    with open(os.path.join(run.wl.OUT_DIR, f"trace-{workload}.json"),
              encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["spans"][0]["name"] == "round"
    assert all(span["end"] >= span["start"] for span in trace["spans"])


def test_wrappers_are_restored_after_a_traced_round():
    from repro.obs import KernelProfiler
    from repro.runner import ResultCache, get_spec, run_experiment
    from repro.sim import Environment

    before = (Environment.run, ResultCache.get, ResultCache.put,
              KernelProfiler.site_of, KernelProfiler.timer_site,
              get_spec("table1"), Environment.default_profile,
              Environment.telemetry_factory)
    smoke("table1_startup", 1)
    after = (Environment.run, ResultCache.get, ResultCache.put,
             KernelProfiler.site_of, KernelProfiler.timer_site,
             get_spec("table1"), Environment.default_profile,
             Environment.telemetry_factory)
    assert before == after
    rendered = run_experiment("table1", quick=True).render()
    with open(os.path.join(REPO_DIR, "tests", "golden",
                           "experiments_quick.out"), encoding="utf-8") as fh:
        assert fh.read().startswith(rendered + "\n")


def test_refuses_the_compiled_lane(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_COMPILED", "1")
    with pytest.raises(SystemExit) as refused:
        run.guard()
    assert "REPRO_SIM_COMPILED" in str(refused.value)
