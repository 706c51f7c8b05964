"""Property-based invariants of QASSA over random problem instances.

These are the load-bearing guarantees the rest of the middleware builds on:

* a returned feasible plan actually satisfies every global constraint;
* the plan's aggregated QoS equals a from-scratch re-aggregation of its
  binding (no stale caching);
* the utility is consistent with the global normaliser;
* alternates never duplicate the primary and respect the configured quota;
* whenever the exhaustive optimum exists, QASSA either finds a feasible
  plan too or the repair budget was genuinely exhausted (no silent misses
  on easy instances);
* the sort-filter skyline that prunes dominated candidates keeps exactly
  the indexes a pairwise :meth:`QoSVector.dominates` comparison keeps,
  and falls back to that comparison where the skyline does not apply.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import SelectionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.qos.values import QoSVector, non_dominated_indexes
from repro.api import QASOM, build_shopping_scenario
from repro.services.generator import ServiceGenerator
from repro.composition.aggregation import aggregate_composition
from repro.composition.baselines import ExhaustiveSelection
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import Task, leaf, parallel, sequence
from repro.experiments.workloads import constraints_at_tightness

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}

_instances = st.fixed_dictionaries(
    {
        "activities": st.integers(1, 4),
        "services": st.integers(2, 15),
        "seed": st.integers(0, 500),
        "tightness": st.floats(0.3, 1.0),
        "use_parallel": st.booleans(),
    }
)


def build(params):
    n = params["activities"]
    leaves = [leaf(f"A{i}", f"task:C{i}") for i in range(n)]
    if params["use_parallel"] and n >= 3:
        root = sequence(leaves[0], parallel(leaves[1], leaves[2]), *leaves[3:])
    else:
        root = sequence(*leaves)
    task = Task("prop", root)
    generator = ServiceGenerator(PROPS, seed=params["seed"])
    candidates = CandidateSets(
        task,
        {a.name: generator.candidates(a.capability, params["services"])
         for a in task.activities},
    )
    constraints = constraints_at_tightness(
        task, candidates, PROPS, ["response_time", "availability"],
        params["tightness"],
    )
    request = UserRequest(
        task, constraints=constraints, weights={n: 1.0 for n in PROPS}
    )
    return task, request, candidates


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances)
def test_feasible_plans_satisfy_constraints(params):
    task, request, candidates = build(params)
    try:
        plan = QASSA(PROPS).select(request, candidates)
    except SelectionError:
        return
    assert plan.feasible
    assert request.satisfied_by(plan.aggregated_qos)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances)
def test_aggregate_matches_binding(params):
    task, request, candidates = build(params)
    try:
        plan = QASSA(PROPS).select(request, candidates)
    except SelectionError:
        return
    recomputed = aggregate_composition(
        task,
        {n: s.advertised_qos for n, s in plan.binding().items()},
        PROPS,
        plan.approach,
    )
    for name in PROPS:
        assert plan.aggregated_qos[name] == pytest.approx(recomputed[name])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances)
def test_utility_in_unit_interval(params):
    task, request, candidates = build(params)
    try:
        plan = QASSA(PROPS).select(request, candidates)
    except SelectionError:
        return
    assert -1e-9 <= plan.utility <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_instances, st.integers(0, 4))
def test_alternate_quota_respected(params, quota):
    task, request, candidates = build(params)
    selector = QASSA(PROPS, config=QassaConfig(alternates_kept=quota))
    try:
        plan = selector.select(request, candidates)
    except SelectionError:
        return
    for selection in plan.selections.values():
        assert 1 <= len(selection.services) <= 1 + quota
        assert selection.primary not in selection.alternates
        ids = [s.service_id for s in selection.services]
        assert len(ids) == len(set(ids))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.fixed_dictionaries(
        {
            "activities": st.integers(1, 3),
            "services": st.integers(2, 8),
            "seed": st.integers(0, 200),
            "tightness": st.floats(0.5, 1.0),
            "use_parallel": st.just(False),
        }
    )
)
def test_qassa_finds_feasible_when_optimum_exists_easy(params):
    """On small, moderately constrained instances, QASSA's completeness in
    practice: whenever exhaustive proves feasibility, QASSA succeeds too
    and reaches >= 70 % of the optimum."""
    task, request, candidates = build(params)
    try:
        optimum = ExhaustiveSelection(PROPS).select(request, candidates)
    except SelectionError:
        return
    plan = QASSA(PROPS).select(request, candidates)
    assert plan.feasible
    assert plan.utility >= 0.7 * optimum.utility - 1e-9


# ---------------------------------------------------------------------------
# The Pareto filter: sort-filter skyline vs the pairwise definition.
# ---------------------------------------------------------------------------
def pairwise_non_dominated(vectors):
    """The definition: indexes no other vector dominates (all if none)."""
    keep = [
        i for i, v in enumerate(vectors)
        if not any(j != i and w.dominates(v) for j, w in enumerate(vectors))
    ]
    return keep or list(range(len(vectors)))


def skyline_with_spy(vectors):
    """``non_dominated_indexes`` plus how often it called ``dominates``
    (the skyline never does; the pairwise fallback does)."""
    calls = []
    original = QoSVector.dominates

    def spy(self, other):
        calls.append(1)
        return original(self, other)

    with mock.patch.object(QoSVector, "dominates", spy):
        result = non_dominated_indexes(vectors)
    return result, len(calls)


# Few distinct values, so ties and duplicates are common; 1e16 next to 1.0
# makes float sums round, and 0.0 / -0.0 compare equal.
_tie_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e16, -1e16, 1e16 + 2.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _uniform_pools(draw):
    names = draw(
        st.lists(st.sampled_from(sorted(PROPS)), min_size=1, max_size=4,
                 unique=True)
    )
    rows = draw(
        st.lists(st.lists(_tie_values, min_size=len(names),
                          max_size=len(names)),
                 min_size=1, max_size=30)
    )
    return [QoSVector(dict(zip(names, row)), PROPS) for row in rows]


@settings(max_examples=150, deadline=None)
@given(_uniform_pools())
def test_skyline_matches_pairwise_on_uniform_pools(vectors):
    result, calls = skyline_with_spy(vectors)
    assert result == pairwise_non_dominated(vectors)
    assert calls == 0


_any_values = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]
)


@st.composite
def _irregular_pools(draw):
    vectors = draw(
        st.lists(
            st.dictionaries(st.sampled_from(sorted(PROPS)), _any_values,
                            max_size=4),
            min_size=2, max_size=12,
        )
    )
    return [QoSVector(values, PROPS) for values in vectors]


def _skyline_applies(vectors):
    keys = set(vectors[0])
    return all(
        set(v) == keys and all(math.isfinite(v[n]) for n in v)
        for v in vectors
    )


@settings(max_examples=100, deadline=None)
@given(_irregular_pools())
def test_mixed_property_sets_and_non_finite_values_take_the_fallback(vectors):
    assume(not _skyline_applies(vectors))
    result, calls = skyline_with_spy(vectors)
    assert result == pairwise_non_dominated(vectors)
    assert calls > 0


@pytest.mark.parametrize("count", [1, 2, 5])
def test_all_equal_pool_keeps_everything(count):
    vectors = [QoSVector({"cost": 3.0, "availability": 0.9}, PROPS)] * count
    assert non_dominated_indexes(vectors) == list(range(count))


def test_signed_zeros_tie():
    vectors = [
        QoSVector({"cost": 0.0, "availability": -0.0}, PROPS),
        QoSVector({"cost": -0.0, "availability": 0.0}, PROPS),
        QoSVector({"cost": 0.0, "availability": -1.0}, PROPS),
    ]
    assert non_dominated_indexes(vectors) == [0, 1]
    assert pairwise_non_dominated(vectors) == [0, 1]


def test_sum_rounding_does_not_reorder_dominance():
    # 1e16 + 1.0 rounds back to 1e16, so both rows sum alike in floats;
    # the second still dominates the first on cost.
    vectors = [
        QoSVector({"cost": 1.0, "response_time": 1e16}, PROPS),
        QoSVector({"cost": 0.0, "response_time": 1e16}, PROPS),
    ]
    assert non_dominated_indexes(vectors) == [1]


def test_shopping_world_pools_keep_the_pairwise_front():
    """The four capability pools of the benchmark world, pinned."""
    scenario = build_shopping_scenario(services_per_activity=100, seed=7)
    middleware = QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
    )
    relevant = {
        n: scenario.properties[n]
        for n in scenario.request.relevant_properties
    }
    sizes = {}
    for name, services in middleware.candidates_for(scenario.task).items():
        vectors = [s.advertised_qos.restrict(relevant) for s in services]
        keep = non_dominated_indexes(vectors)
        assert keep == pairwise_non_dominated(vectors), name
        sizes[name] = (len(vectors), len(keep))
    assert sizes == {
        "Browse": (100, 29),
        "Order": (100, 32),
        "Pay": (250, 41),
        "Notify": (100, 19),
    }
