"""Layer spans recorded from outside the program.

The benchmark wraps each layer's public entry point on the objects it
built and records a span per call: the layer, its start and end, and the
request it belongs to.  Spans nest per thread, so a layer's *self* time is
its span minus the spans opened inside it: behavioural adaptation, for
example, selects from inside ``AdaptationManager.handle``, and that time is
counted under selection, not twice.

Every wrapper is removed by :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Hashable, List, Optional

DISCOVERY = "discovery"
SELECT = "qassa.select"
COMPOSE = "backend.compose"
EXECUTION = "execution"
ADAPTATION = "adaptation"

#: How many selection inputs the probes re-run.
PROBE_INPUTS = 8


class RequestLayers:
    """Per-request totals: self seconds per layer, and top-level seconds."""

    __slots__ = ("self_seconds", "total_seconds", "top_seconds")

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        #: Time covered by spans with no enclosing span: what the request's
        #: caller (client loop or runtime worker) spent inside any layer.
        self.top_seconds = 0.0

    def merge(self, other: "RequestLayers") -> None:
        for layer, seconds in other.self_seconds.items():
            self.self_seconds[layer] += seconds
        for layer, seconds in other.total_seconds.items():
            self.total_seconds[layer] += seconds
        self.top_seconds += other.top_seconds


class _Frame:
    __slots__ = ("layer", "key", "started", "children")

    def __init__(self, layer: str, key: Hashable, started: float) -> None:
        self.layer = layer
        self.key = key
        self.started = started
        self.children = 0.0


class LayerTracer:
    """Collects layer spans keyed by request, from any thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests: Dict[Hashable, RequestLayers] = {}
        self._undo: List[Callable[[], None]] = []
        #: The first ``PROBE_INPUTS`` ``(request, candidates)`` seen by
        #: in-process selections and ``(request, snapshot)`` shipped to
        #: worker processes: the inputs of the local-phase and discovery
        #: probes.
        self.selections: List[tuple] = []
        self.shipped: List[tuple] = []
        #: Statistics of every plan a selector computed (coalesced copies
        #: are not selections and are not counted).
        self.statistics: List[object] = []

    # -- request binding --------------------------------------------------
    def bind(self, key: Optional[Hashable]) -> None:
        """Attribute this thread's top-level spans to ``key``."""
        self._local.key = key

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ------------------------------------------------------------
    def call(self, layer: str, key: Optional[Hashable], fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``.

        ``key`` names the request for a top-level span; nested spans
        inherit their parent's request.
        """
        stack = self._stack()
        if stack:
            key = stack[-1].key
        elif key is None:
            key = getattr(self._local, "key", None)
        frame = _Frame(layer, key, time.perf_counter())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            duration = ended - frame.started
            if stack:
                stack[-1].children += duration
            self._record(frame, duration, top=not stack)

    def _record(self, frame: _Frame, duration: float, top: bool) -> None:
        with self._lock:
            layers = self._requests.get(frame.key)
            if layers is None:
                layers = self._requests[frame.key] = RequestLayers()
            layers.self_seconds[frame.layer] += duration - frame.children
            layers.total_seconds[frame.layer] += duration
            if top:
                layers.top_seconds += duration

    def attribute_child(self, key: Hashable, parent: str, layer: str,
                        seconds: float) -> None:
        """Move ``seconds`` of ``parent``'s self time to a child ``layer``
        timed elsewhere (a selection run inside a worker process)."""
        with self._lock:
            layers = self._requests.setdefault(key, RequestLayers())
            layers.self_seconds[parent] -= seconds
            layers.self_seconds[layer] += seconds
            layers.total_seconds[layer] += seconds

    def pop(self, key: Hashable) -> RequestLayers:
        """The spans recorded for ``key`` (empty when none), forgetting them."""
        with self._lock:
            return self._requests.pop(key, None) or RequestLayers()

    # -- instrumentation --------------------------------------------------
    def _patch(self, owner, name: str, wrapper) -> None:
        had_own = name in vars(owner)
        original = vars(owner).get(name)
        setattr(owner, name, wrapper)

        def undo() -> None:
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

        self._undo.append(undo)

    def install(self, middleware, runtime=None) -> None:
        """Wrap every layer entry point reachable from ``middleware``.

        With a ``runtime``, composition runs in its worker processes and
        only ``runtime.backend.compose`` is visible from here.
        """
        select = middleware.selector.select

        def traced_select(request, candidates, *args, **kwargs):
            plan = self.call(SELECT, None, select, request, candidates,
                             *args, **kwargs)
            with self._lock:
                if len(self.selections) < PROBE_INPUTS:
                    self.selections.append((request, candidates))
                self.statistics.append(plan.statistics)
            return plan

        self._patch(middleware.selector, "select", traced_select)

        candidates_for = middleware.candidates_for
        self._patch(middleware, "candidates_for",
                    lambda task: self.call(DISCOVERY, None, candidates_for, task))

        execute = middleware.engine.execute
        self._patch(middleware.engine, "execute",
                    lambda plan: self.call(EXECUTION, ("plan", id(plan)),
                                           execute, plan))

        deploy = middleware.adaptation_manager

        def traced_manager(plan, *args, **kwargs):
            manager = deploy(plan, *args, **kwargs)
            handle = manager.handle
            manager.handle = lambda trigger: self.call(
                ADAPTATION, ("plan", id(plan)), handle, trigger
            )
            return manager

        self._patch(middleware, "adaptation_manager", traced_manager)

        if runtime is None:
            return
        compose = runtime.backend.compose

        def traced_compose(spec, snapshot):
            key = ("spec", id(spec))
            plans = self.call(COMPOSE, key, compose, spec, snapshot)
            # The selection ran in a worker process; its own clock measured
            # it, and the statistics travel with the plan.
            statistics = plans[0].statistics
            with self._lock:
                if len(self.shipped) < PROBE_INPUTS:
                    self.shipped.append((spec.request, snapshot))
                self.statistics.append(statistics)
            self.attribute_child(key, COMPOSE, SELECT,
                                 statistics.elapsed_seconds)
            return plans

        self._patch(runtime.backend, "compose", traced_compose)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
