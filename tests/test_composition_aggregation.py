"""Tests for QoS aggregation over patterns — Table IV.1 verified numerically."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.qos import units as u
from repro.qos.properties import (
    AVAILABILITY,
    COST,
    ENERGY,
    REPUTATION,
    RESPONSE_TIME,
    SECURITY_LEVEL,
    THROUGHPUT,
    AggregationKind,
    Direction,
    QoSProperty,
)
from repro.qos.values import QoSVector
from repro.composition.aggregation import (
    AggregationApproach,
    _conditional,
    aggregate_composition,
    aggregate_values,
    aggregation_bounds,
)
from repro.composition.task import (
    Task,
    conditional,
    leaf,
    loop,
    parallel,
    sequence,
)

SEQ3 = sequence(leaf("A"), leaf("B"), leaf("C"))
PAR2 = parallel(leaf("A"), leaf("B"))
VALUES = {"A": 10.0, "B": 20.0, "C": 30.0}


class TestSequence:
    def test_additive_sums(self):
        assert aggregate_values(RESPONSE_TIME, SEQ3, VALUES) == 60.0

    def test_multiplicative_multiplies(self):
        values = {"A": 0.9, "B": 0.8, "C": 0.5}
        assert aggregate_values(AVAILABILITY, SEQ3, values) == pytest.approx(0.36)

    def test_min_takes_bottleneck(self):
        assert aggregate_values(THROUGHPUT, SEQ3, VALUES) == 10.0

    def test_average(self):
        assert aggregate_values(REPUTATION, SEQ3, VALUES) == pytest.approx(20.0)

    def test_security_min(self):
        assert aggregate_values(SECURITY_LEVEL, SEQ3, VALUES) == 10.0


class TestParallel:
    def test_time_takes_slowest_branch(self):
        assert aggregate_values(RESPONSE_TIME, PAR2, VALUES) == 20.0

    def test_cost_sums_across_branches(self):
        assert aggregate_values(COST, PAR2, VALUES) == 30.0

    def test_energy_sums_across_branches(self):
        assert aggregate_values(ENERGY, PAR2, VALUES) == 30.0

    def test_availability_multiplies(self):
        values = {"A": 0.9, "B": 0.8}
        assert aggregate_values(AVAILABILITY, PAR2, values) == pytest.approx(0.72)

    def test_throughput_bottleneck(self):
        assert aggregate_values(THROUGHPUT, PAR2, VALUES) == 10.0


class TestConditional:
    COND = conditional(leaf("A"), leaf("B"), probabilities=(0.25, 0.75))

    def test_pessimistic_takes_worst_branch(self):
        # Response time: worst = larger.
        assert aggregate_values(
            RESPONSE_TIME, self.COND, VALUES, AggregationApproach.PESSIMISTIC
        ) == 20.0
        # Availability: worst = smaller.
        values = {"A": 0.9, "B": 0.7}
        assert aggregate_values(
            AVAILABILITY, self.COND, values, AggregationApproach.PESSIMISTIC
        ) == 0.7

    def test_optimistic_takes_best_branch(self):
        assert aggregate_values(
            RESPONSE_TIME, self.COND, VALUES, AggregationApproach.OPTIMISTIC
        ) == 10.0

    def test_mean_value_is_expectation(self):
        expected = 0.25 * 10.0 + 0.75 * 20.0
        assert aggregate_values(
            RESPONSE_TIME, self.COND, VALUES, AggregationApproach.MEAN
        ) == pytest.approx(expected)

    def test_mean_with_uniform_default(self):
        node = conditional(leaf("A"), leaf("B"))
        assert aggregate_values(
            RESPONSE_TIME, node, VALUES, AggregationApproach.MEAN
        ) == pytest.approx(15.0)


class TestLoop:
    LOOP = loop(leaf("A"), max_iterations=4, expected_iterations=2.5)

    def test_pessimistic_additive_multiplies_by_max(self):
        assert aggregate_values(
            RESPONSE_TIME, self.LOOP, VALUES, AggregationApproach.PESSIMISTIC
        ) == 40.0

    def test_optimistic_additive_single_iteration(self):
        assert aggregate_values(
            RESPONSE_TIME, self.LOOP, VALUES, AggregationApproach.OPTIMISTIC
        ) == 10.0

    def test_mean_additive_uses_expected_iterations(self):
        assert aggregate_values(
            RESPONSE_TIME, self.LOOP, VALUES, AggregationApproach.MEAN
        ) == pytest.approx(25.0)

    def test_pessimistic_multiplicative_exponentiates(self):
        values = {"A": 0.9}
        assert aggregate_values(
            AVAILABILITY, self.LOOP, values, AggregationApproach.PESSIMISTIC
        ) == pytest.approx(0.9 ** 4)

    def test_min_max_average_invariant_under_loop(self):
        for prop in (THROUGHPUT, REPUTATION, SECURITY_LEVEL):
            assert aggregate_values(
                prop, self.LOOP, VALUES, AggregationApproach.PESSIMISTIC
            ) == 10.0


class TestLoopDirection:
    """The worst/best iteration count depends on the property's direction.

    For a POSITIVE additive property (a reward accrued per pass) a single
    iteration is the *pessimistic* case — assuming max_iterations would
    inflate the guaranteed bound.  Regression tests for the direction-blind
    ``_loop`` that always took ``n = max_iterations`` pessimistically.
    """

    REWARD = QoSProperty(
        name="reward",
        uri="sqos:Reward",
        direction=Direction.POSITIVE,
        aggregation=AggregationKind.ADDITIVE,
        unit=u.SCORE,
        value_range=(0.0, 100.0),
    )
    GAIN = QoSProperty(
        name="gain",
        uri="sqos:Gain",
        direction=Direction.POSITIVE,
        aggregation=AggregationKind.MULTIPLICATIVE,
        unit=u.RATIO,
        value_range=(0.5, 4.0),
    )
    LOOP = loop(leaf("A"), max_iterations=4, expected_iterations=2.5)

    def test_positive_additive_pessimistic_is_single_iteration(self):
        assert aggregate_values(
            self.REWARD, self.LOOP, VALUES, AggregationApproach.PESSIMISTIC
        ) == 10.0

    def test_positive_additive_optimistic_is_max_iterations(self):
        assert aggregate_values(
            self.REWARD, self.LOOP, VALUES, AggregationApproach.OPTIMISTIC
        ) == 40.0

    def test_positive_multiplicative_above_one(self):
        values = {"A": 1.25}
        assert aggregate_values(
            self.GAIN, self.LOOP, values, AggregationApproach.PESSIMISTIC
        ) == pytest.approx(1.25)
        assert aggregate_values(
            self.GAIN, self.LOOP, values, AggregationApproach.OPTIMISTIC
        ) == pytest.approx(1.25 ** 4)

    def test_negative_additive_unchanged(self):
        # The classic case (response time) keeps its Table IV.1 semantics.
        assert aggregate_values(
            RESPONSE_TIME, self.LOOP, VALUES, AggregationApproach.PESSIMISTIC
        ) == 40.0
        assert aggregate_values(
            RESPONSE_TIME, self.LOOP, VALUES, AggregationApproach.OPTIMISTIC
        ) == 10.0

    def test_mean_uses_expected_iterations_either_direction(self):
        assert aggregate_values(
            self.REWARD, self.LOOP, VALUES, AggregationApproach.MEAN
        ) == pytest.approx(25.0)


class TestConditionalMeanValidation:
    """MEAN aggregation must reject malformed probability vectors instead of
    silently zip-truncating or scaling by a non-unit total."""

    def test_length_mismatch_raises(self):
        with pytest.raises(AggregationError, match="probabilities"):
            _conditional(
                RESPONSE_TIME, [10.0, 20.0, 30.0], [0.5, 0.5],
                AggregationApproach.MEAN,
            )

    def test_probabilities_not_summing_to_one_raise(self):
        with pytest.raises(AggregationError, match="sum to"):
            _conditional(
                RESPONSE_TIME, [10.0, 20.0], [0.3, 0.3],
                AggregationApproach.MEAN,
            )

    def test_pessimistic_ignores_probabilities(self):
        # Worst-branch selection never consults probabilities, so the
        # validation must not fire outside the MEAN path.
        assert _conditional(
            RESPONSE_TIME, [10.0, 20.0, 30.0], [0.5, 0.5],
            AggregationApproach.PESSIMISTIC,
        ) == 30.0

    def test_valid_probabilities_accepted(self):
        assert _conditional(
            RESPONSE_TIME, [10.0, 20.0], [0.25, 0.75],
            AggregationApproach.MEAN,
        ) == pytest.approx(17.5)


class TestNestedPatterns:
    def test_sequence_of_parallel_and_loop(self):
        tree = sequence(
            leaf("A"),
            parallel(leaf("B"), leaf("C")),
            loop(leaf("D"), max_iterations=2),
        )
        values = {"A": 10.0, "B": 20.0, "C": 30.0, "D": 5.0}
        # 10 + max(20, 30) + 2*5 = 50
        assert aggregate_values(
            RESPONSE_TIME, tree, values, AggregationApproach.PESSIMISTIC
        ) == 50.0
        # Cost: 10 + (20 + 30) + 2*5 = 70
        assert aggregate_values(
            COST, tree, values, AggregationApproach.PESSIMISTIC
        ) == 70.0


class TestErrors:
    def test_missing_activity_value_raises(self):
        with pytest.raises(AggregationError):
            aggregate_values(RESPONSE_TIME, SEQ3, {"A": 1.0})


SEQ_TASK = Task("t", sequence(leaf("A"), leaf("B")))
#: Every pattern kind in one tree; the conditional and loop resolve
#: differently under each aggregation approach.
PATTERN_TASK = Task("patterns", sequence(
    leaf("A"),
    parallel(leaf("B"), leaf("C")),
    conditional(leaf("D"), leaf("E"), probabilities=(0.25, 0.75)),
    loop(leaf("F"), max_iterations=4, expected_iterations=2.5),
))
#: (best, worst) per activity.  Time overlaps under the parallel (max)
#: while cost is paid by both branches (sum).
PATTERN_TIMES = {
    "A": (10.0, 50.0), "B": (20.0, 80.0), "C": (30.0, 40.0),
    "D": (4.0, 8.0), "E": (8.0, 16.0), "F": (2.0, 6.0),
}
PATTERN_COSTS = {
    "A": (1.0, 5.0), "B": (2.0, 4.0), "C": (3.0, 3.0),
    "D": (2.0, 4.0), "E": (4.0, 8.0), "F": (1.0, 2.0),
}


class TestVectorAggregation:
    def test_aggregate_composition_vector(self):
        props = {"response_time": RESPONSE_TIME, "availability": AVAILABILITY}
        task = Task("t", sequence(leaf("A"), leaf("B")))
        assignments = {
            "A": QoSVector({"response_time": 100.0, "availability": 0.9}, props),
            "B": QoSVector({"response_time": 200.0, "availability": 0.8}, props),
        }
        result = aggregate_composition(task, assignments, props)
        assert result["response_time"] == 300.0
        assert result["availability"] == pytest.approx(0.72)

    @pytest.mark.parametrize(
        "task, prop, extremes, approach, expected",
        [
            (SEQ_TASK, RESPONSE_TIME, {"A": (10.0, 50.0), "B": (20.0, 80.0)},
             AggregationApproach.PESSIMISTIC, (30.0, 130.0)),
            (PATTERN_TASK, RESPONSE_TIME, PATTERN_TIMES,
             AggregationApproach.PESSIMISTIC, (56.0, 170.0)),
            (PATTERN_TASK, RESPONSE_TIME, PATTERN_TIMES,
             AggregationApproach.OPTIMISTIC, (46.0, 144.0)),
            (PATTERN_TASK, RESPONSE_TIME, PATTERN_TIMES,
             AggregationApproach.MEAN, (52.0, 159.0)),
            (PATTERN_TASK, COST, PATTERN_COSTS,
             AggregationApproach.PESSIMISTIC, (14.0, 28.0)),
            (PATTERN_TASK, COST, PATTERN_COSTS,
             AggregationApproach.OPTIMISTIC, (9.0, 18.0)),
            (PATTERN_TASK, COST, PATTERN_COSTS,
             AggregationApproach.MEAN, (12.0, 24.0)),
        ],
        ids=[
            "sequence",
            "patterns-time-pessimistic", "patterns-time-optimistic",
            "patterns-time-mean",
            "patterns-cost-pessimistic", "patterns-cost-optimistic",
            "patterns-cost-mean",
        ],
    )
    def test_aggregation_bounds(self, task, prop, extremes, approach, expected):
        # Exact float equality: every intermediate value is dyadic.
        assert aggregation_bounds(task, prop, extremes, approach) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=5),
)
def test_pessimistic_bounds_optimistic_for_time(values):
    """Pessimistic aggregation is never better than optimistic."""
    names = [f"N{i}" for i in range(len(values))]
    node = conditional(*[leaf(n) for n in names])
    activity_values = dict(zip(names, values))
    pessimistic = aggregate_values(
        RESPONSE_TIME, node, activity_values, AggregationApproach.PESSIMISTIC
    )
    optimistic = aggregate_values(
        RESPONSE_TIME, node, activity_values, AggregationApproach.OPTIMISTIC
    )
    mean = aggregate_values(
        RESPONSE_TIME, node, activity_values, AggregationApproach.MEAN
    )
    tolerance = 1e-9 * max(values)
    assert optimistic <= mean + tolerance
    assert mean <= pessimistic + tolerance


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.5, 1.0, allow_nan=False), min_size=2, max_size=5))
def test_sequence_availability_never_exceeds_members(values):
    names = [f"N{i}" for i in range(len(values))]
    node = sequence(*[leaf(n) for n in names])
    result = aggregate_values(AVAILABILITY, node, dict(zip(names, values)))
    assert result <= min(values) + 1e-12
