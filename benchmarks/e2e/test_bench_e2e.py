"""Smoke-scale checks of the wall-clock benchmark itself.

Run explicitly (``testpaths`` keeps this out of tier-1; it takes about
two minutes because every workload still sets up at real key sizes)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

import copy
import json
import statistics

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.metrics import END_TO_END, LAYER_SPANS, PER_LAYER
from benchmarks.e2e.probes import standard_probes
from benchmarks.e2e.trace import Probe, Tracer
from benchmarks.e2e.workloads import WORKLOADS

SEED = 5


def _bindings():
    return [(probe.owner, probe.attr, vars(probe.owner)[probe.attr])
            for probe in standard_probes()]


@pytest.fixture(scope="module")
def smoke():
    before = _bindings()
    results = cli.run_suite(SEED, smoke=True)
    return {"results": results, "before": before, "after": _bindings()}


def test_every_metric_is_emitted_for_every_workload(smoke):
    results = smoke["results"]
    assert results["gates_failed"] == []
    assert list(results["end_to_end"]) == list(WORKLOADS)
    for name in WORKLOADS:
        assert list(results["end_to_end"][name]) == [
            metric.name for metric in END_TO_END]
        assert sorted(results["per_layer"][name]) == sorted(
            metric.name for metric in PER_LAYER)
        assert results["end_to_end"][name]["failed_share"] == 0
        assert results["samples"][name]["rounds_untraced"] == 2


def test_self_times_add_up_to_the_round_wall(smoke):
    results = smoke["results"]
    for name in WORKLOADS:
        layers = results["per_layer"][name]
        attributed = sum(layers[f"{span}.self_ms"] for span in LAYER_SPANS)
        wall = 1000.0 * statistics.fmean(
            results["traced_round_wall_seconds"][name])
        assert attributed + layers["bench.unattributed_ms"] == \
            pytest.approx(wall, rel=0.05), name
        assert layers["bench.unattributed_ms"] <= 0.10 * wall, name


def test_wrapped_attributes_are_restored(smoke):
    assert len(smoke["before"]) == len(smoke["after"])
    for (owner, attr, before), (_, _, after) in zip(smoke["before"],
                                                    smoke["after"]):
        assert after is before, f"{owner!r}.{attr} was left wrapped"


def test_output_matches_benchmark_json():
    contract = cli.load_contract()
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    suite = {metric.name: metric for metric in END_TO_END}
    for entry in contract["end_to_end"]:
        metric = suite[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit,
                                                    metric.better)
        assert 0 <= entry["bound"] <= 0.25
    assert [(e["name"], e["unit"], e["better"])
            for e in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]


@pytest.mark.parametrize("trace", [False, True])
def test_driver_mode_prints_the_contract_metrics(trace):
    contract = cli.load_contract()
    result = cli.run_driver("cipher_hist_1024", SEED, seconds=0.5,
                            trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [
        entry["name"] for entry in contract[section]]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    json.dumps(result)  # plain numbers only
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_check_requires_counts_to_match_exactly(smoke):
    first = smoke["results"]
    assert cli.compare(first, first) == []
    second = copy.deepcopy(first)
    second["per_layer"]["agg_fresh_1024"]["crypto.encrypt.ops"] += 1
    second["end_to_end"]["agg_fresh_1024"]["round_s_p50"] *= 1.05
    # Under the 0.001 BENCHMARK.json allows it, but a count all the same.
    second["end_to_end"]["agg_fresh_1024"]["wire_bytes_per_round"] += 1
    problems = cli.compare(first, second)
    assert len(problems) == 2
    assert "wire_bytes_per_round" in problems[0]
    assert "crypto.encrypt.ops" in problems[1]


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Layer)["outer"]
    tracer = Tracer("unit")
    tracer.install([Probe(Layer, "outer", "layer.outer"),
                    Probe(Layer, "inner", "layer.inner",
                          lambda result, args, kwargs: result)])
    tracer.round_id = 0
    assert Layer().outer() == 2
    tracer.restore()
    assert vars(Layer)["outer"] is original
    totals = tracer.layer_totals()
    outer, inner = tracer.spans
    assert inner[3] == 0 and outer[3] == -1  # parent links
    assert totals["layer.inner"]["payloads"] == [1]
    assert totals["layer.outer"]["self_s"] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert Layer().outer() == 2 and len(tracer.spans) == 2
