"""The benchmark's workloads, each on the shopping scenario.

``solo_unique``
    100 services per activity, one closed-loop client calling
    ``QASOM.submit(request)`` inline (execute and adapt on), every request
    with its own weights.  Selection-bound: the QASSA local phase sets the
    median and the lattice walk sets the tail; the runtime, the coalescer
    and the selection cache do nothing here.
``churn_process``
    100 services per activity on ``MiddlewareRuntime(backend="process",
    workers=2)``, a closed loop of two clients over six shared profiles,
    with a registry write before every round.  Each write invalidates the
    coalescer and batcher keys and ships a new snapshot to the worker
    processes.

A workload is set up, run for one or more timed phases, then checked.
Each timed phase returns one :class:`Sample` per request attempted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (
    CandidateSets,
    MiddlewareRuntime,
    RequestStatus,
    RuntimeConfig,
    UserRequest,
)
from repro.runtime.batching import DiscoveryBatcher
from repro.semantics.matching import MatchCache

from qbench.layers import LayerTracer, RequestLayers
from qbench.world import (
    World,
    apply_write,
    base_request,
    binding_names,
    build_world,
    plan_signature,
    profiles,
    report_signature,
    rescore,
    unique_requests,
    WriteStream,
)

#: Requests, counted from the first timed one, whose execution reports are
#: compared with a serial replay; beyond them plans are compared on every
#: ``REPLAY_STRIDE``-th request.
REPLAY_PREFIX = 20
REPLAY_STRIDE = 25

#: Relative agreement required between ``plan.utility`` and a re-score.
UTILITY_TOLERANCE = 1e-9


@dataclass
class Sample:
    """One attempted request, as the benchmark saw it."""

    index: int
    latency: Optional[float]          # seconds; None when it failed
    ok: bool
    error: str = ""
    utility: Optional[float] = None   # composition utility, pre-execution
    selection_seconds: float = 0.0    # plan.statistics.elapsed_seconds
    queue: float = 0.0
    service: float = 0.0
    submit_gap: float = 0.0
    invocations: int = 0
    retries: int = 0
    triggers: int = 0
    adapted: int = 0
    finished: float = 0.0             # perf_counter at completion
    layers: Optional[RequestLayers] = None


@dataclass
class Phase:
    """The samples and layer counters of one timed phase."""

    samples: List[Sample]
    wall: float                        # first send to last completion
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> List[Sample]:
        return [s for s in self.samples if s.ok]


@dataclass
class Captured:
    """A plan as composed, recorded when its execution starts.

    Execution-time substitution rewrites a plan in place, so the identity
    and utility the checks need are taken before the engine runs.
    """

    bindings: Tuple[Tuple[str, str], ...]
    utility: float
    feasible: bool
    signature: tuple


def capture_compositions(world: World) -> Dict[int, Captured]:
    """Record every plan ``world``'s engine executes, keyed by ``id(plan)``."""
    captured: Dict[int, Captured] = {}
    engine = world.middleware.engine
    execute = engine.execute

    def recording_execute(plan):
        captured[id(plan)] = Captured(
            binding_names(plan), plan.utility, plan.feasible,
            plan_signature(plan),
        )
        return execute(plan)

    engine.execute = recording_execute
    return captured


def _outcome(sample: Sample, result, captured: Dict[int, Captured]) -> Captured:
    """Fill ``sample`` from a finished request's result."""
    report = result.report
    sample.invocations = len(report.invocations)
    sample.retries = sum(1 for r in report.invocations if r.attempt > 1)
    sample.triggers = len(result.adaptations)
    sample.adapted = sum(
        1 for outcome in result.adaptations
        if outcome.action.value in ("substitution", "behavioural")
    )
    sample.selection_seconds = result.plan.statistics.elapsed_seconds
    composed = captured.pop(id(result.plan))
    sample.utility = composed.utility
    if not report.succeeded:
        sample.ok = False
        sample.error = f"execution failed at {report.failed_activity}"
    return composed


# ----------------------------------------------------------------------
class Workload:
    """Common life cycle: set up, timed phases, check, close."""

    name = ""
    services = 0
    #: Whether requests go through a ``MiddlewareRuntime``.
    brokered = False
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.world: Optional[World] = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: Optional[float], requests: Optional[int],
            tracer: Optional[LayerTracer]) -> Phase:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def probe_inputs(self, tracer: LayerTracer) -> List[tuple]:
        """``(request, candidates, discovery seconds or None)`` for the
        local-phase probe; the seconds are given where discovery had to be
        probed because it ran out of the parent's sight."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return {}

    @staticmethod
    def _more(started: float, seconds: Optional[float], done: int,
              requests: Optional[int]) -> bool:
        if requests is not None:
            return done < requests
        return time.perf_counter() - started < seconds


# ----------------------------------------------------------------------
class SoloUnique(Workload):
    name = "solo_unique"
    services = 100
    setup_repeats = 15

    def setup(self) -> None:
        self.world = build_world(self.services)
        middleware = self.world.middleware
        middleware.submit(base_request(self.world)).result()
        self.generation = self.world.registry.generation
        self.captured = capture_compositions(self.world)
        self.stream = unique_requests(self.world, self.seed)
        self.next_index = 0
        self.checked: List[Tuple[object, Captured]] = []

    def run(self, seconds, requests, tracer) -> Phase:
        middleware = self.world.middleware
        samples: List[Sample] = []
        started = time.perf_counter()
        finished = started
        while self._more(started, seconds, len(samples), requests):
            index = self.next_index
            self.next_index += 1
            request = next(self.stream)
            sample = Sample(index, None, ok=True)
            if tracer is not None:
                tracer.bind(index)
            sent = time.perf_counter()
            try:
                result = middleware.submit(request).result()
            except Exception as exc:  # noqa: BLE001 - a failed request
                finished = time.perf_counter()
                sample.ok = False
                sample.error = f"{type(exc).__name__}: {exc}"
            else:
                finished = time.perf_counter()
                sample.latency = finished - sent
                composed = _outcome(sample, result, self.captured)
                self.checked.append((request, composed))
                if tracer is not None:
                    layers = tracer.pop(index)
                    layers.merge(tracer.pop(("plan", id(result.plan))))
                    sample.layers = layers
            samples.append(sample)
        if tracer is not None:
            tracer.bind(None)
        return Phase(samples, finished - started)

    def check(self) -> List[str]:
        errors = []
        middleware = self.world.middleware
        if self.world.registry.generation != self.generation:
            errors.append("the registry changed during a read-only workload")
        candidates = middleware.candidates_for(self.world.scenario.task)
        for request, composed in self.checked:
            errors.extend(_rescore_errors(self.world, request, candidates,
                                          composed))
        return errors

    def probe_inputs(self, tracer):
        return [(request, candidates, None)
                for request, candidates in tracer.selections]


# ----------------------------------------------------------------------
class ChurnProcess(Workload):
    name = "churn_process"
    services = 100
    brokered = True
    clients = 2
    profile_count = 6
    setup_repeats = 5

    def setup(self) -> None:
        self.world = build_world(self.services)
        self.runtime = MiddlewareRuntime(
            self.world.middleware,
            RuntimeConfig(backend="process", workers=2),
        ).start()
        self.profiles = profiles(self.world, self.profile_count)
        self.captured = capture_compositions(self.world)
        for request in self.profiles:
            self.runtime.submit(request).result()
        self.captured.clear()
        self.choices = random.Random(f"clients/{self.seed}")
        self.writes = WriteStream(self.world, self.seed)
        #: What the runtime executed, in commit order after the warm-up:
        #: ``(profile index, captured plan, report or None)``, plus the
        #: registry writes as ``("write", write)`` entries.
        self.log: List[tuple] = []
        self.logged = 0
        self.next_index = 0

    def close(self) -> None:
        # Set up may have failed before the runtime was made.
        runtime = getattr(self, "runtime", None)
        if runtime is not None:
            runtime.close()

    def counters(self) -> Dict[str, float]:
        runtime = self.runtime
        return {
            "coalescer.lookups": runtime.coalescer.lookups,
            "coalescer.coalesced": runtime.coalescer.coalesced,
            "snapshot.refreshes": runtime.snapshots.refreshes,
            "snapshot.acquires": runtime.snapshots.acquires,
            "runtime.requeued": runtime.requeued,
        }

    def run(self, seconds, requests, tracer) -> Phase:
        runtime = self.runtime
        samples: List[Sample] = []
        started = time.perf_counter()
        while self._more(started, seconds, len(samples), requests):
            for write in self.writes.next_writes():
                apply_write(self.world, write)
                self.log.append(("write", write))
            round_ = []
            for _ in range(self.clients):
                profile = self.choices.randrange(self.profile_count)
                sent = time.perf_counter()
                handle = runtime.submit(self.profiles[profile])
                round_.append((sent, profile, handle))
            for sent, profile, handle in round_:
                handle.wait(120.0)
                sample = Sample(self.next_index, None, ok=True)
                self.next_index += 1
                self._finish(sample, handle, profile, tracer, sent)
                samples.append(sample)
        finished = max([started] + [s.finished for s in samples])
        return Phase(samples, finished - started)

    def _finish(self, sample: Sample, handle, profile: int,
                tracer: Optional[LayerTracer], sent: float) -> None:
        """Fill ``sample`` from a terminal handle and log the commit.

        Latency runs from the send time to the runtime's completion stamp.
        """
        sample.submit_gap = handle.submitted_wall - sent
        sample.finished = handle.finished_wall or sent
        if handle.status is not RequestStatus.DONE:
            sample.ok = False
            sample.error = f"{handle.status.value}: {handle.exception()!r}"
            return
        result = handle.result()
        sample.latency = handle.finished_wall - sent
        sample.queue = handle.queue_seconds
        sample.service = handle.finished_wall - handle.started_wall
        composed = _outcome(sample, result, self.captured)
        keep_report = self.logged < REPLAY_PREFIX
        self.log.append(
            (profile, composed, result.report if keep_report else None)
        )
        self.logged += 1
        if tracer is not None:
            layers = tracer.pop(("spec", id(handle.spec)))
            layers.merge(tracer.pop(("plan", id(result.plan))))
            sample.layers = layers

    # -- output check -----------------------------------------------------
    def check(self) -> List[str]:
        """Re-score every plan and replay the run serially on a twin world.

        The twin receives the warm-up, then every logged request in commit
        order with the same registry writes in between.  The first
        ``REPLAY_PREFIX`` requests are executed there too and their
        execution reports compared; after that every ``REPLAY_STRIDE``-th
        plan is composed and compared.
        """
        errors: List[str] = []
        twin = build_world(self.services)
        twin_captured = capture_compositions(twin)
        middleware = twin.middleware
        for request in _rebase(self.profiles, twin):
            middleware.submit(request).result()
        requests = _rebase(self.profiles, twin)
        task = twin.scenario.task
        candidates = middleware.candidates_for(task)
        scored: Dict[tuple, Optional[str]] = {}
        composed_by_key: Dict[tuple, Captured] = {}
        # Re-publishing keeps service ids, so these maps survive the writes.
        twin_names = {s.service_id: s.name for s in twin.registry.services()}
        own_names = {
            s.service_id: s.name for s in self.world.registry.services()
        }
        replayed = 0
        for entry in self.log:
            if entry[0] == "write":
                apply_write(twin, entry[1])
                candidates = middleware.candidates_for(task)
                scored.clear()
                continue
            profile, composed, report = entry
            request = requests[profile]
            key = (profile, composed.bindings, composed.utility)
            if key not in scored:
                found = _rescore_errors(twin, request, candidates, composed)
                scored[key] = found[0] if found else None
            if scored[key] is not None:
                errors.append(scored[key])
            if replayed < REPLAY_PREFIX:
                result = middleware.submit(request).result()
                twin_plan = twin_captured.pop(id(result.plan))
                if report_signature(report, own_names) != report_signature(
                    result.report, twin_names
                ):
                    errors.append(
                        f"request {replayed}: execution report differs "
                        "from the serial replay"
                    )
            elif replayed % REPLAY_STRIDE == 0:
                # Composition is a function of the request and the registry
                # generation, so one serial composition per pair suffices.
                key = (profile, twin.registry.generation)
                if key not in composed_by_key:
                    plan = middleware.submit(request, execute=False).plan()
                    composed_by_key[key] = Captured(
                        binding_names(plan), plan.utility, plan.feasible,
                        plan_signature(plan),
                    )
                twin_plan = composed_by_key[key]
            else:
                twin_plan = None
            if twin_plan is not None and (
                twin_plan.signature != composed.signature
            ):
                errors.append(
                    f"request {replayed}: plan differs from the serial replay"
                )
            replayed += 1
        return errors

    def probe_inputs(self, tracer):
        """Pools rediscovered from snapshots the workers composed against.

        Discovery ran inside the worker processes, out of the parent's
        sight; the probe repeats it on the same snapshots with a fresh
        batcher over a warm match cache, which is the state a worker is in
        when a new generation arrives.
        """
        middleware = self.world.middleware
        ontology = middleware.discovery.ontology
        match_cache = MatchCache(ontology)
        degree = middleware.config.discovery_minimum_degree

        def discover(request, snapshot):
            batcher = DiscoveryBatcher(ontology=ontology,
                                       match_cache=match_cache)
            return {
                activity.name: batcher.candidates(
                    snapshot, activity.capability, degree
                )
                for activity in request.task.activities
            }

        inputs = []
        for index, (request, snapshot) in enumerate(tracer.shipped):
            if index == 0:
                discover(request, snapshot)  # warm the match cache
            started = time.perf_counter()
            pools = discover(request, snapshot)
            elapsed = time.perf_counter() - started
            inputs.append(
                (request, CandidateSets(request.task, pools), elapsed)
            )
        return inputs


WORKLOADS = {cls.name: cls for cls in (SoloUnique, ChurnProcess)}


# ----------------------------------------------------------------------
def _rebase(requests, world: World):
    """The same requests over ``world``'s own task object."""
    return [
        UserRequest(task=world.scenario.task, constraints=r.constraints,
                    weights=dict(r.weights))
        for r in requests
    ]


def _rescore_errors(world: World, request, candidates,
                    composed: Captured) -> List[str]:
    if not composed.feasible:
        return [f"an infeasible plan completed: {composed.bindings}"]
    utility, feasible = rescore(world, request, candidates, composed.bindings)
    if not feasible:
        return [f"re-scoring finds {composed.bindings} infeasible"]
    if abs(utility - composed.utility) > UTILITY_TOLERANCE * max(
        1.0, abs(utility)
    ):
        return [
            f"re-scored utility {utility!r} disagrees with plan.utility "
            f"{composed.utility!r} for {composed.bindings}"
        ]
    return []
