"""The benchmark's world: the shopping scenario and its seeded inputs.

The service population is the shopping scenario at a fixed world seed, so
every ``--seed`` measures the same environment.  What ``--seed`` varies is
the workload drawn against it: fresh weight profiles, the choice among
shared profiles, and the registry writes.  A twin world (same world seed)
is interchangeable with the original by service *name*; service ids come
from a process-global counter and differ between the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.api import (
    MiddlewareConfig,
    QASOM,
    QassaConfig,
    ServiceGenerator,
    UserRequest,
    build_shopping_scenario,
)
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    evaluate_assignment,
    make_global_normalizer,
)

#: Seed of the service population, fixed so that seeds vary the workload,
#: not the environment it runs in.
WORLD_SEED = 7

#: Every ranked service of an activity gets one invocation attempt, and
#: each activity keeps twelve of them.  With the scenario's availability
#: draws this makes an execution that exhausts every binding vanishingly
#: rare, so a failed request signals a defect rather than bad luck.
RANKED_SERVICES = 12
MIDDLEWARE_CONFIG = MiddlewareConfig(
    qassa=QassaConfig(alternates_kept=RANKED_SERVICES - 1),
    max_execution_attempts=RANKED_SERVICES,
)


@dataclass
class World:
    """One seeded environment with the middleware deployed over it."""

    scenario: object
    middleware: QASOM

    @property
    def registry(self):
        return self.scenario.environment.registry

    def service_named(self, name: str):
        """The live registry entry carrying ``name`` (names are unique)."""
        for service in self.registry.services():
            if service.name == name:
                return service
        raise KeyError(name)


def build_world(services_per_activity: int) -> World:
    scenario = build_shopping_scenario(
        services_per_activity=services_per_activity, seed=WORLD_SEED
    )
    middleware = QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
        config=MIDDLEWARE_CONFIG,
    )
    return World(scenario, middleware)


def base_request(world: World) -> UserRequest:
    """The scenario's own request: the fixed warm-up input."""
    return world.scenario.request


#: Range of a drawn property weight.
WEIGHT_LOW, WEIGHT_HIGH = 0.1, 1.0


def weighted(world: World, weights: Dict[str, float]) -> UserRequest:
    """The scenario request under ``weights``."""
    template = world.scenario.request
    return UserRequest(
        task=template.task, constraints=template.constraints, weights=weights
    )


def weight_profile(world: World, rng: random.Random) -> UserRequest:
    """The scenario request under one user's freshly drawn weights."""
    return weighted(world, {
        name: round(rng.uniform(WEIGHT_LOW, WEIGHT_HIGH), 6)
        for name in world.scenario.request.weights
    })


def profiles(world: World, count: int) -> List[UserRequest]:
    """A fixed menu of weight profiles: the task templates the users of
    one runtime share.  Like the world, the menu is the same for every
    seed; the seed draws which user picks which profile."""
    rng = random.Random("profiles")
    return [weight_profile(world, rng) for _ in range(count)]


def kronecker_step(dimensions: int) -> List[float]:
    """Step of the R_d low-discrepancy sequence in ``dimensions``.

    ``phi`` is the root of ``x ** (d + 1) == x + 1`` (the golden ratio for
    ``d == 1``) and the step's components are its inverse powers.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dimensions + 1))
    return [(1.0 / phi ** (i + 1)) % 1.0 for i in range(dimensions)]


def unique_requests(world: World, seed: int) -> Iterator[UserRequest]:
    """An endless stream of requests, each with its own weights.

    The weight vectors walk an R_d sequence from a seeded offset.  Every
    seed gets its own weights, but each run covers the weight space as
    evenly as any other: selection cost depends on the weights, and with
    independent draws a run of a few hundred requests met a different
    share of hard selections for every seed.
    """
    names = list(world.scenario.request.weights)
    rng = random.Random(f"unique/{seed}")
    point = [rng.random() for _ in names]
    step = kronecker_step(len(names))
    span = WEIGHT_HIGH - WEIGHT_LOW
    while True:
        point = [(x + dx) % 1.0 for x, dx in zip(point, step)]
        yield weighted(world, {
            name: round(WEIGHT_LOW + span * x, 6)
            for name, x in zip(names, point)
        })


class WriteStream:
    """Seeded registry writes: re-publish one service with fresh QoS.

    Each round's writes also give the previous round's service its
    original advertisement back, so the population never drifts from the
    seeded world by more than one service: without that, a run's own
    writes reshaped the world and with it the cost of every selection, by
    a different amount for every seed.  Writes are recorded as
    ``(service name, QoS vector)`` so a twin world can apply the same
    writes in the same order.
    """

    def __init__(self, world: World, seed: int) -> None:
        self._rng = random.Random(f"writes/{seed}")
        self._qos = ServiceGenerator(
            world.scenario.properties, seed=self._rng.randrange(1 << 30)
        )
        self._original = {
            s.name: s.advertised_qos for s in world.registry.services()
        }
        self._names = sorted(self._original)
        self._restore: List[Tuple[str, object]] = []

    def next_writes(self) -> List[Tuple[str, object]]:
        """This round's writes: the restore, then the fresh QoS."""
        name = self._names[self._rng.randrange(len(self._names))]
        writes = self._restore
        self._restore = [(name, self._original[name])]
        return writes + [(name, self._qos.draw_vector())]


def apply_write(world: World, write: Tuple[str, object]) -> None:
    name, qos = write
    world.registry.publish(world.service_named(name).with_qos(qos))


# ----------------------------------------------------------------------
# world-independent identities and re-scoring
# ----------------------------------------------------------------------
def binding_names(plan: CompositionPlan) -> Tuple[Tuple[str, str], ...]:
    """The plan's primary bindings by service name, in activity order."""
    return tuple(
        (activity, selection.primary.name)
        for activity, selection in sorted(plan.selections.items())
    )


def plan_signature(plan: CompositionPlan) -> tuple:
    """World-independent identity of a composed plan."""
    return (
        binding_names(plan),
        repr(plan.utility),
        plan.feasible,
        tuple(sorted((n, repr(plan.aggregated_qos[n])) for n in plan.aggregated_qos)),
    )


def report_signature(report, names: Dict[str, str]) -> tuple:
    """World-independent identity of an execution report.

    ``names`` maps the report's service ids onto service names.
    """
    def qos(vector):
        if vector is None:
            return None
        return tuple(sorted((n, repr(vector[n])) for n in vector))

    return (
        report.succeeded,
        tuple(
            (
                record.activity_name,
                names.get(record.service_id, record.service_id),
                repr(record.started_at),
                record.succeeded,
                record.attempt,
                qos(record.observed_qos),
            )
            for record in report.invocations
        ),
    )


def rescore(world: World, request: UserRequest, candidates: CandidateSets,
            bindings: Tuple[Tuple[str, str], ...]) -> Tuple[float, bool]:
    """Utility and feasibility of a binding, scored from scratch.

    The normaliser is rebuilt from the candidate pools the selector saw,
    so the score is comparable with the selector's own ``plan.utility``.
    """
    middleware = world.middleware
    names = request.relevant_properties or tuple(middleware.properties)
    relevant = {n: middleware.properties[n] for n in names}
    by_name = {
        service.name: service
        for _, pool in candidates.items() for service in pool
    }
    assignment = {activity: by_name[name] for activity, name in bindings}
    normalizer = make_global_normalizer(
        request.task, candidates, relevant, middleware.config.aggregation
    )
    _, utility, feasible = evaluate_assignment(
        request.task, request, assignment, relevant, normalizer,
        middleware.config.aggregation,
    )
    return utility, feasible
