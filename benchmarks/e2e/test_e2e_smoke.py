"""Smoke test of the end-to-end benchmark at ``--quick`` size.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import one_pass  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
SEED = 7


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def quick_run(request):
    """Two plain quick passes and one traced one of a workload."""
    return request.param, run.measure(request.param, SEED, run.QUICK_SCALE,
                                      passes=2, traced=True)


def test_spec_names_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_every_metric_present_with_its_unit(quick_run):
    _name, result = quick_run
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.contract_line(SPEC, result, traced)
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    # End-to-end metrics are never 0 (a bound is a share of them).
    assert all(value > 0 for value in result["end_to_end"].values())


def test_oracles_pass(quick_run):
    _name, result = quick_run
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_exact_counts_repeat_on_sim(quick_run):
    name, result = quick_run
    if WORKLOADS[name].backend != "sim":
        pytest.skip("live passes race real processes")
    first, second = result["counts"]
    assert first == second
    assert first["simulator.events"] > 0
    # The traced pass does the same work as the plain ones.
    for key in ("simulator.events", "core.commits"):
        assert result["per_layer"][key] == first[key]


def test_ledger_covers_the_sim_wall_clock(quick_run):
    name, result = quick_run
    if WORKLOADS[name].backend != "sim":
        pytest.skip("live: only the master side is traced")
    assert 0.9 <= result["per_layer"]["trace.coverage"] <= 1.0
    assert result["per_layer"]["core.transport.retransmits"] == 0


def test_live_workers_reaped_when_a_pass_fails(monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("planted failure after the workers started")

    monkeypatch.setattr(one_pass, "fresh_op", boom)
    with pytest.raises(RuntimeError, match="planted"):
        one_pass.run_pass(WORKLOADS["sssp_live"], SEED, run.QUICK_SCALE,
                          traced=False, spawned_at=time.time())
    assert multiprocessing.active_children() == []
