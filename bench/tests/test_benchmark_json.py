"""``BENCHMARK.json`` names what the benchmark prints, with the same units."""

import json

from bench import ROOT
from bench.metrics import END_TO_END, LISTED, PER_LAYER
from bench.workloads import WORKLOADS


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_workloads_match():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_end_to_end_metrics_are_the_listed_ones_with_their_bounds():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(LISTED)
    for entry in spec["end_to_end"]:
        metric = END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit,
            metric.better,
            LISTED[metric.name],
        )


def test_per_layer_metrics_match_the_registry():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for entry in spec["per_layer"]:
        metric = PER_LAYER[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
