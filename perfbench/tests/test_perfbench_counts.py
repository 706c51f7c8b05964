"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The counts a later change may cite as evidence must repeat exactly for a
fixed seed, so each test runs a short, fixed number of requests twice on
freshly set-up workloads and compares.
"""

import json
import pathlib

from qbench import measure
from qbench.layers import LayerTracer
from qbench.workloads import WORKLOADS

SEED = 11


def traced_counts(name, requests):
    workload = WORKLOADS[name](SEED)
    workload.setup()
    try:
        tracer = LayerTracer()
        phase = measure.run_phase(workload, None, requests, tracer)
        assert all(sample.ok for sample in phase.samples)
        assert workload.check() == []
        return tracer, phase
    finally:
        workload.close()


def test_solo_unique_qassa_counts_repeat():
    def counts():
        tracer, phase = traced_counts("solo_unique", 4)
        assert len(phase.samples) == 4
        return [
            (s.combinations_explored, s.utility_evaluations,
             s.clustering_iterations, s.cache_hits)
            for s in tracer.statistics
        ]

    first = counts()
    assert len(first) >= 4
    assert all(hits == 0 for *_, hits in first)  # fresh weights: no reuse
    assert counts() == first


def test_churn_process_coalescer_and_snapshot_counts_repeat():
    def counts():
        _, phase = traced_counts("churn_process", 16)
        return {name: phase.counters[name] for name in (
            "coalescer.lookups", "coalescer.coalesced",
            "snapshot.refreshes", "snapshot.acquires",
        )}

    first = counts()
    # One refresh per round of two requests: every round writes first.
    assert (first["snapshot.refreshes"], first["snapshot.acquires"]) == (8, 16)
    assert counts() == first


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(
        (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json")
        .read_text()
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        measure.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        measure.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
