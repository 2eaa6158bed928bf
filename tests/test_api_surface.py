"""The public facade: surface snapshot, laziness, shims, determinism.

``repro``'s ``__all__`` is the compatibility contract (docs/api.md).
These tests pin it exactly, verify ``import repro`` stays lazy (no
substrate packages load until an attribute is touched), exercise the
deprecated flat-knob shims, and assert same-seed runs export
byte-identical traces -- the reproducibility guarantee the whole paper
model rests on.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.core.config import (
    HealthConfig,
    PiCloudConfig,
    SimBudgetConfig,
    TraceConfig,
)
from repro.errors import ConfigurationError, PiCloudError

SRC = str(Path(__file__).resolve().parent.parent / "src")

EXPECTED_SURFACE = sorted([
    "__version__",
    "PiCloud", "PiCloudConfig",
    "SimBudgetConfig", "HealthConfig", "TraceConfig",
    "FaultSchedule", "FaultEvent", "MtbfFaultInjector",
    "Tracer",
    "PiCloudError", "ConfigurationError",
    "SimulationError", "SimBudgetExceeded", "DeadlineExceeded",
    "HardwareError", "OutOfMemoryError", "StorageFullError",
    "PowerStateError",
    "NetworkError", "NoRouteError", "AddressError", "RateModelError",
    "VirtualisationError", "ContainerStateError", "ImageError",
    "MigrationError",
    "ManagementError", "RestError", "CircuitOpenError", "LeaseError",
    "UnknownNodeError",
    "FaultError", "FaultTargetError", "FaultStateError",
    "PlacementError", "SchedulingError",
    "CampaignError",
    "CampaignSpec", "CampaignRunner", "CampaignResult",
    "ResultStore", "RunRecord",
    "run_campaign", "render_dashboard",
    "RateModelConfig",
    "LoadConfig", "LoadError", "LoadEngine", "LoadReport",
    "Service", "ServiceProfile", "SloObjective", "SloTracker",
    "ArrivalProcess", "PoissonArrivals", "DiurnalArrivals",
    "FlashCrowdArrivals", "RegionalMixture",
    "LatencyHistogram",
])


class TestFacadeSurface:
    def test_all_is_the_pinned_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_SURFACE

    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_error_hierarchy_roots_at_picloud_error(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, repro.PiCloudError)

    def test_import_is_lazy(self):
        """``import repro`` must not drag in the substrate packages."""
        code = (
            "import sys; import repro; "
            "heavy = [m for m in sys.modules if m.startswith("
            "('repro.core', 'repro.netsim', 'repro.mgmt', 'repro.virt'))]; "
            "print(','.join(heavy))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == ""

    def test_facade_import_works_from_clean_interpreter(self):
        code = (
            "import repro; "
            "assert repro.PiCloud.__name__ == 'PiCloud'; "
            "assert repro.Tracer.__name__ == 'Tracer'; "
            "assert issubclass(repro.FaultTargetError, ValueError)"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )


class TestGroupedConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            PiCloudConfig(4, 14)  # noqa: positional args rejected

    def test_sub_configs_validate(self):
        with pytest.raises(PiCloudError):
            SimBudgetConfig(max_events=0)
        with pytest.raises(PiCloudError):
            HealthConfig(heartbeat_interval_s=0.0)
        with pytest.raises(PiCloudError):
            HealthConfig(suspect_after_misses=3, dead_after_misses=3)

    def test_grouped_knobs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = PiCloudConfig(
                budget=SimBudgetConfig(max_events=500),
                health=HealthConfig(enabled=True),
                trace=TraceConfig(enabled=True, kernel_events=True),
            )
        assert config.budget.max_events == 500
        assert config.run_budget().max_events == 500

    def test_new_perf_knobs_default_on(self):
        config = PiCloudConfig()
        assert config.incremental_fairness is True
        assert config.monitoring_idle_backoff == 2.0
        assert config.monitoring_max_interval_s is None


class TestDeprecatedFlatKnobs:
    def test_flat_budget_knob_warns_and_maps(self):
        with pytest.warns(DeprecationWarning, match="max_events"):
            config = PiCloudConfig(max_events=123)
        assert config.budget.max_events == 123
        assert config.max_events == 123          # mirror read keeps working
        assert config.run_budget().max_events == 123

    def test_flat_tracing_knob_warns_and_maps(self):
        with pytest.warns(DeprecationWarning, match="tracing"):
            config = PiCloudConfig.small(tracing=True)
        assert config.trace.enabled is True
        assert config.tracing is True

    def test_flat_health_knobs_warn_and_map(self):
        with pytest.warns(DeprecationWarning):
            config = PiCloudConfig.small(
                self_healing=True, heartbeat_interval_s=9.0
            )
        assert config.health.enabled is True
        assert config.health.heartbeat_interval_s == 9.0
        assert config.heartbeat_interval_s == 9.0

    def test_unset_flat_knobs_mirror_grouped_values(self):
        config = PiCloudConfig(health=HealthConfig(dead_after_misses=7))
        assert config.dead_after_misses == 7
        assert config.self_healing is False

    def test_flat_knob_validation_still_raises(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(PiCloudError):
                PiCloudConfig.small(max_events=0)

    def test_configuration_error_is_value_error(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError):
                PiCloudConfig.small(max_events=0)
        assert issubclass(ConfigurationError, ValueError)


_DETERMINISM_SCRIPT = """
import sys
from repro import PiCloud, PiCloudConfig, TraceConfig

config = PiCloudConfig.small(
    seed=3, routing="shortest",
    trace=TraceConfig(enabled=True),
)
cloud = PiCloud(config)
cloud.boot()
for name in ("web-1", "web-2"):
    cloud.spawn_and_wait("webserver", name=name)
cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 5e6)
cloud.run_for(120.0)
cloud.write_trace(sys.argv[1])
"""


class TestSeedDeterminism:
    def test_same_seed_exports_byte_identical_traces(self, tmp_path):
        """Two fresh interpreters, same seed -> identical trace bytes."""
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"trace-{run}.jsonl"
            subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT, str(out)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
